// Package malformed exercises the -audit malformed-directive checks:
// a typoed directive word, an allow with no analyzer list, an allow
// with an empty name inside the list, and a hotpath directive outside
// a function's doc comment.
package malformed

//taq:alow wallclock typoed directive word
func A() {}

// B carries a bare allow with no analyzer list.
func B() {
	_ = 1 //taq:allow
}

// T is not a function, so hotpath cannot root here.
//
//taq:hotpath misplaced
type T struct{}

//taq:allow wallclock,,maprange empty name in the list
func C() {}

// D carries an allow naming an analyzer that does not exist.
func D() {
	_ = 2 //taq:allow wallclck misspelled analyzer name
}

// E is a function, so shardowned cannot mark it.
//
//taq:shardowned misplaced on a function
func E() {}

// U is not a function, so crossshard cannot exempt it.
//
//taq:crossshard misplaced
type U struct{}

// F carries an allow(func) with no analyzer list.
//
//taq:allow(func)
func F() {}

func G() {
	// An allow(func) must live in a function's doc comment, not a body.
	//taq:allow(func) wallclock misplaced inside the body
	_ = 3
}

// V and X use directive words retired with their analyzers: to the
// audit they are as unknown as a typo.
//
//taq:layout size=8
type V struct{ a int64 }

//taq:atomic retired
type X struct{ a int64 }
