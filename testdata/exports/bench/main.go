package main

import (
	"fmt"

	"example/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly()) }
