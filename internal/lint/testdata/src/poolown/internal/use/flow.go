package use

import "fix/internal/pool"

// One case per control-flow form of the shared statement walker, each with
// and without a finding.

func blockLeak() {
	b := pool.GetBuf()
	{
		_ = len(b.B)
	}
} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`

func blockReleased() {
	b := pool.GetBuf()
	{
		pool.PutBuf(b)
	}
}

// Both arms release, so b is released after the if.
func ifBothRelease(x bool) int {
	b := pool.GetBuf()
	if x {
		pool.PutBuf(b)
	} else {
		pool.PutBuf(b)
	}
	return len(b.B) // want `pooled value "b" used after release`
}

// The arms disagree: tracking stops.
func ifOneRelease(x bool) {
	b := pool.GetBuf()
	if x {
		pool.PutBuf(b)
	}
}

func returnElseLeak(x bool) int {
	b := pool.GetBuf()
	if x {
		pool.PutBuf(b)
	} else {
		return 1 // want `pooled value "b" \(obtained at line \d+\) is not released on this path`
	}
	return 0
}

func returnReleased(x bool) int {
	b := pool.GetBuf()
	if x {
		pool.PutBuf(b)
		return 1
	}
	pool.PutBuf(b)
	return 0
}

// The post statement runs after the body.
func forPostUse(n int) {
	b := pool.GetBuf()
	pool.PutBuf(b)
	for i := 0; i < n; i += len(b.B) { // want `pooled value "b" used after release`
	}
}

// When n <= 0 the loop body never runs and b is never released.
func forBodyReturns(n int) {
	b := pool.GetBuf()
	for i := 0; i < n; i++ {
		pool.PutBuf(b)
		return
	}
} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`

// The continue path changes b, so the loop drops it.
func forContinueDrops(n int) {
	b := pool.GetBuf()
	for i := 0; i < n; i++ {
		if i == 0 {
			pool.PutBuf(b)
			continue
		}
	}
}

func rangeUse(xs []int) {
	b := pool.GetBuf()
	pool.PutBuf(b)
	for range xs {
		_ = len(b.B) // want `pooled value "b" used after release`
	}
}

func rangeReleasedAfter(xs []int) {
	b := pool.GetBuf()
	for range xs {
		_ = len(b.B)
	}
	pool.PutBuf(b)
}

// break leaves the loop with b still owned.
func breakLeak(n int) {
	b := pool.GetBuf()
	for {
		if n > 0 {
			break
		}
		pool.PutBuf(b)
		return
	}
} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`

func breakReleased(n int) {
	b := pool.GetBuf()
	for {
		if n > 0 {
			pool.PutBuf(b)
			break
		}
		pool.PutBuf(b)
		return
	}
}

func continueUse(xs []int) {
	b := pool.GetBuf()
	pool.PutBuf(b)
	for range xs {
		if len(b.B) > 0 { // want `pooled value "b" used after release`
			continue
		}
	}
}

// A labeled break leaves the outer loop with b still owned.
func labeledBreakLeak(rows [][]int) {
	b := pool.GetBuf()
outer:
	for {
		for range rows {
			break outer
		}
		pool.PutBuf(b)
		return
	}
} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`

func labeledBreakReleased(rows [][]int) {
	b := pool.GetBuf()
outer:
	for {
		for range rows {
			pool.PutBuf(b)
			break outer
		}
		pool.PutBuf(b)
		return
	}
}

// With a default clause every path releases.
func switchDefault(x int) int {
	b := pool.GetBuf()
	switch x {
	case 1:
		pool.PutBuf(b)
	default:
		pool.PutBuf(b)
	}
	return len(b.B) // want `pooled value "b" used after release`
}

// Without a default the no-match path keeps b: tracking stops.
func switchNoDefault(x int) {
	b := pool.GetBuf()
	switch x {
	case 1:
		pool.PutBuf(b)
	case 2:
		pool.PutBuf(b)
	}
}

// break leaves the switch with b still owned.
func switchBreakLeak(x int) {
	b := pool.GetBuf()
	switch x {
	default:
		if len(b.B) == 0 {
			break
		}
		pool.PutBuf(b)
		return
	}
} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`

func switchAllReturn(x int) int {
	b := pool.GetBuf()
	switch x {
	case 1:
		pool.PutBuf(b)
		return 1
	default:
		pool.PutBuf(b)
		return 2
	}
}

// The type switch's subject is a use.
func typeSwitchAfterRelease() {
	r := pool.GetReleasable()
	r.Release()
	switch r.(type) { // want `pooled value "r" used after release`
	}
}

func typeSwitchDefault(v any) {
	b := pool.GetBuf()
	switch v.(type) {
	case int:
		pool.PutBuf(b)
	default:
		pool.PutBuf(b)
	}
	pool.PutBuf(b) // want `pooled value "b" released twice`
}

// The comm statement is a use.
func selectComm(ch chan int) {
	b := pool.GetBuf()
	pool.PutBuf(b)
	select {
	case ch <- len(b.B): // want `pooled value "b" used after release`
	default:
	}
}

// A select without default runs one of its clauses.
func selectBlocking(a, c chan int) int {
	b := pool.GetBuf()
	select {
	case <-a:
		pool.PutBuf(b)
	case <-c:
		pool.PutBuf(b)
	}
	return len(b.B) // want `pooled value "b" used after release`
}

func selectDefault(ch chan int) {
	b := pool.GetBuf()
	select {
	case <-ch:
		pool.PutBuf(b)
	default:
		pool.PutBuf(b)
	}
}

func gotoUse(x bool) {
	b := pool.GetBuf()
	pool.PutBuf(b)
	if x {
		goto out
	}
	_ = len(b.B) // want `pooled value "b" used after release`
out:
}

// goto ends the path it is on.
func gotoEnds(x bool) {
	b := pool.GetBuf()
	if x {
		goto out
	}
	pool.PutBuf(b)
out:
}

func panicLeak(x bool) {
	b := pool.GetBuf()
	if x {
		panic(len(b.B))
	}
} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`

// panic ends the path it is on.
func panicEnds(x bool) {
	b := pool.GetBuf()
	if x {
		panic("boom")
	}
	pool.PutBuf(b)
}

func deferTwice() {
	b := pool.GetBuf()
	defer pool.PutBuf(b)
	pool.PutBuf(b) // want `pooled value "b" released twice`
}

// A deferred literal captures b: tracking stops.
func deferLit() {
	b := pool.GetBuf()
	defer func() { pool.PutBuf(b) }()
}

// A goroutine body is an independent scope.
func goLeak() {
	go func() {
		b := pool.GetBuf()
		_ = len(b.B)
	}() // want `pooled value "b" \(obtained at line \d+\) is not released on this path`
}

// Handing b to a goroutine stops tracking.
func goEscapes() {
	b := pool.GetBuf()
	go pool.PutBuf(b)
}

func litLeak() func() {
	return func() {
		b := pool.GetBuf()
		_ = len(b.B)
	} // want `pooled value "b" \(obtained at line \d+\) is not released on this path`
}

func litReleased() {
	f := func() {
		b := pool.GetBuf()
		pool.PutBuf(b)
	}
	f()
}
