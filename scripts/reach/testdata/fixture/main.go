package main

import "fixture/lib"

type stringer interface{ String() string }

func main() {
	var s stringer = lib.NewName("x")
	b := &lib.Box[int]{}
	println(s.String(), lib.Used(), b.Get())
}
