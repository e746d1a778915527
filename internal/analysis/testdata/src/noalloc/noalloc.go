// Package noalloc exercises every allocation source the noalloc
// analyzer flags, plus the bounded-reslice append and pointer-shaped
// boxing that keep it quiet.
package noalloc

// T is a small heap candidate.
type T struct{ x int }

// S aggregates the stateful cases.
type S struct {
	buf  []int
	m    map[int]*T
	name string
}

func sink(v any) { _ = v }

func varia(vs ...int) int { return len(vs) }

func cleanup() {}

// Hot is the fixture root.
//
//taq:hotpath covers every allocation source
func Hot(s *S, vals []int, key string) {
	t := &T{x: 1}          // want `escapes to the heap`
	p := new(T)            // want `new\(\.\.\.\) allocates`
	m := make(map[int]int) // want `make allocates`
	_ = map[string]int{}   // want `map literal allocates`
	sl := []int{1, 2}      // want `slice literal allocates`
	_ = sl
	_ = p
	_ = m[0] // want `map access`

	s.buf = append(s.buf, 1)  // want `append to s.buf may grow`
	good := make([]int, 0, 8) // want `make allocates`
	good = append(good, 2)    // want `append to good may grow`
	_ = good
	s.buf = append(s.buf[:0], 3) // bounded reslice: no growth finding
	for _, v := range vals {
		s.buf = append(s.buf, v) // want `append to s.buf may grow`
	}

	_ = s.m[0]     // want `map access`
	s.m[1] = t     // want `map access`
	delete(s.m, 1) // want `map delete`

	b := []byte(key) // want `copies and allocates`
	_ = string(b)    // want `copies and allocates`

	sink(42) // want `boxes into interface`
	sink(t)  // pointer-shaped: no boxing finding

	_ = varia(1, 2)    // want `variadic call .* allocates`
	_ = varia()        // no variadic args: no finding
	_ = varia(vals...) // spread reuses the slice: no finding

	k := 3
	f := func() int { return k } // want `closure captures k`
	_ = f

	for i := 0; i < 2; i++ {
		defer cleanup() // want `defer inside a loop`
	}

	_ = s.name + key // want `string concatenation allocates`
}
