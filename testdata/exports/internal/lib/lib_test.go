package lib

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 2 {
		t.Fatal("Unused")
	}
	tally := Tally{N: 1}
	tally.Scale(2)
	if tally.N != 2 || (Bag{}).Len() != 0 {
		t.Fatal("Tally or Bag")
	}
}
