package main

import (
	"fmt"

	"example/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Used(), s.Area(), lib.Square{Side: 1}.Scale(3))
}
