package obs

import "sync"

// One case per control-flow form of the shared statement walker, each with
// and without a finding. Every case takes its own lock class under the
// leaf Journal.mu, because lockgraph reports one witness per ordered pair.
type (
	cBlockHeld         struct{ mu sync.Mutex }
	cBlockFree         struct{ mu sync.Mutex }
	cIfMayHold         struct{ mu sync.Mutex }
	cIfBothRelease     struct{ mu sync.Mutex }
	cReturnHeld        struct{ mu sync.Mutex }
	cReturnEnds        struct{ mu sync.Mutex }
	cForPost           struct{ mu sync.Mutex }
	cForContinue       struct{ mu sync.Mutex }
	cForFree           struct{ mu sync.Mutex }
	cRangeHeld         struct{ mu sync.Mutex }
	cRangeFree         struct{ mu sync.Mutex }
	cBreakHeld         struct{ mu sync.Mutex }
	cBreakFree         struct{ mu sync.Mutex }
	cLabelHeld         struct{ mu sync.Mutex }
	cLabelFree         struct{ mu sync.Mutex }
	cSwitchHeld        struct{ mu sync.Mutex }
	cSwitchDefault     struct{ mu sync.Mutex }
	cSwitchBreak       struct{ mu sync.Mutex }
	cTypeSwitchHeld    struct{ mu sync.Mutex }
	cTypeSwitchAssign  struct{ mu sync.Mutex }
	cTypeSwitchDefault struct{ mu sync.Mutex }
	cSelectHeld        struct{ mu sync.Mutex }
	cSelectComm        struct{ mu sync.Mutex }
	cSelectDefault     struct{ mu sync.Mutex }
	cSelectBlocking    struct{ mu sync.Mutex }
	cGotoHeld          struct{ mu sync.Mutex }
	cGotoEnds          struct{ mu sync.Mutex }
	cPanicHeld         struct{ mu sync.Mutex }
	cPanicEnds         struct{ mu sync.Mutex }
	cDeferHeld         struct{ mu sync.Mutex }
	cDeferFree         struct{ mu sync.Mutex }
	cGoHeld            struct{ mu sync.Mutex }
	cGoFree            struct{ mu sync.Mutex }
	cLitHeld           struct{ mu sync.Mutex }
	cLitFree           struct{ mu sync.Mutex }
)

func blockHeld(j *Journal, c *cBlockHeld) {
	{
		j.mu.Lock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in blockHeld while obs.cBlockHeld.mu is acquired`
	c.mu.Unlock()
	j.mu.Unlock()
}

func blockFree(j *Journal, c *cBlockFree) {
	{
		j.mu.Lock()
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

func ifMayHold(j *Journal, c *cIfMayHold, x bool) {
	if x {
		j.mu.Lock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in ifMayHold while obs.cIfMayHold.mu is acquired`
	c.mu.Unlock()
}

// Both arms release, so nothing is held after the if.
func ifBothRelease(j *Journal, c *cIfBothRelease, x bool) {
	j.mu.Lock()
	if x {
		j.mu.Unlock()
	} else {
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

func returnHeld(j *Journal, c *cReturnHeld, x bool) {
	if x {
		j.mu.Lock()
		c.mu.Lock() // want `leaf lock obs.Journal.mu is held in returnHeld while obs.cReturnHeld.mu is acquired`
		return
	}
}

func returnEnds(j *Journal, c *cReturnEnds, x bool) {
	if x {
		j.mu.Lock()
		return
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// The post statement runs after the body, and its acquisition is held
// past the loop.
func forPost(j *Journal, c *cForPost, n int) {
	for i := 0; i < n; j.mu.Lock() {
		i++
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in forPost while obs.cForPost.mu is acquired`
	c.mu.Unlock()
}

// continue carries j.mu to the next iteration and out of the loop.
func forContinue(j *Journal, c *cForContinue, n int) {
	for i := 0; i < n; i++ {
		j.mu.Lock()
		if i%2 == 0 {
			continue
		}
		j.mu.Unlock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in forContinue while obs.cForContinue.mu is acquired`
	c.mu.Unlock()
}

func forFree(j *Journal, c *cForFree, n int) {
	for i := 0; i < n; i++ {
		j.mu.Lock()
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

func rangeHeld(j *Journal, c *cRangeHeld, xs []int) {
	for range xs {
		j.mu.Lock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in rangeHeld while obs.cRangeHeld.mu is acquired`
	c.mu.Unlock()
}

func rangeFree(j *Journal, c *cRangeFree, xs []int) {
	for range xs {
		j.mu.Lock()
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// break leaves the loop with j.mu held.
func breakHeld(j *Journal, c *cBreakHeld) {
	for {
		j.mu.Lock()
		if j.n > 0 {
			break
		}
		j.mu.Unlock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in breakHeld while obs.cBreakHeld.mu is acquired`
	c.mu.Unlock()
}

func breakFree(j *Journal, c *cBreakFree) {
	for {
		j.mu.Lock()
		if j.n > 0 {
			j.mu.Unlock()
			break
		}
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// A labeled break leaves the outer loop with j.mu held.
func labelHeld(j *Journal, c *cLabelHeld, rows [][]int) {
outer:
	for _, row := range rows {
		for _, x := range row {
			j.mu.Lock()
			if x < 0 {
				break outer
			}
			j.mu.Unlock()
		}
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in labelHeld while obs.cLabelHeld.mu is acquired`
	c.mu.Unlock()
}

func labelFree(j *Journal, c *cLabelFree, rows [][]int) {
outer:
	for _, row := range rows {
		for _, x := range row {
			j.mu.Lock()
			j.mu.Unlock()
			if x < 0 {
				continue outer
			}
		}
	}
	c.mu.Lock()
	c.mu.Unlock()
}

func switchHeld(j *Journal, c *cSwitchHeld, x int) {
	switch x {
	case 1:
		j.mu.Lock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in switchHeld while obs.cSwitchHeld.mu is acquired`
	c.mu.Unlock()
}

// With a default clause no path skips the switch, and every clause
// releases.
func switchDefault(j *Journal, c *cSwitchDefault, x int) {
	j.mu.Lock()
	switch x {
	case 1:
		j.mu.Unlock()
	default:
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// break leaves only the switch, with j.mu held.
func switchBreak(j *Journal, c *cSwitchBreak, x int) {
	switch x {
	case 1:
		j.mu.Lock()
		if j.n > 0 {
			break
		}
		j.mu.Unlock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in switchBreak while obs.cSwitchBreak.mu is acquired`
	c.mu.Unlock()
}

func typeSwitchHeld(j *Journal, c *cTypeSwitchHeld, v any) {
	switch v.(type) {
	case int:
		j.mu.Lock()
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in typeSwitchHeld while obs.cTypeSwitchHeld.mu is acquired`
	c.mu.Unlock()
}

func (c *cTypeSwitchAssign) value() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 1
}

// The type switch's assign is scanned: its call acquires c.mu under j.mu.
func typeSwitchAssign(j *Journal, c *cTypeSwitchAssign) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch v := c.value().(type) { // want `leaf lock obs.Journal.mu is held in typeSwitchAssign while obs.cTypeSwitchAssign.mu is acquired \(transitively through cTypeSwitchAssign.value\)`
	case int:
		_ = v
	}
}

func typeSwitchDefault(j *Journal, c *cTypeSwitchDefault, v any) {
	j.mu.Lock()
	switch v.(type) {
	case int:
		j.mu.Unlock()
	default:
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

func selectHeld(j *Journal, c *cSelectHeld, ch chan int) {
	select {
	case <-ch:
		j.mu.Lock()
	default:
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in selectHeld while obs.cSelectHeld.mu is acquired`
	c.mu.Unlock()
}

func (c *cSelectComm) value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 1
}

// The comm statement is scanned: its send evaluates c.value under j.mu.
func selectComm(j *Journal, c *cSelectComm, ch chan int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case ch <- c.value(): // want `leaf lock obs.Journal.mu is held in selectComm while obs.cSelectComm.mu is acquired \(transitively through cSelectComm.value\)`
	default:
	}
}

func selectDefault(j *Journal, c *cSelectDefault, ch chan int) {
	j.mu.Lock()
	select {
	case <-ch:
		j.mu.Unlock()
	default:
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// A select without default blocks until one of its clauses runs.
func selectBlocking(j *Journal, c *cSelectBlocking, a, b chan int) {
	j.mu.Lock()
	select {
	case <-a:
		j.mu.Unlock()
	case <-b:
		j.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

func gotoHeld(j *Journal, c *cGotoHeld, x bool) {
	j.mu.Lock()
	if x {
		goto out
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in gotoHeld while obs.cGotoHeld.mu is acquired`
	c.mu.Unlock()
out:
	j.mu.Unlock()
}

// goto ends the path it is on.
func gotoEnds(j *Journal, c *cGotoEnds, x bool) {
	if x {
		j.mu.Lock()
		goto out
	}
	c.mu.Lock()
	c.mu.Unlock()
out:
}

func panicHeld(j *Journal, c *cPanicHeld, x bool) {
	j.mu.Lock()
	if x {
		panic("boom")
	}
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in panicHeld while obs.cPanicHeld.mu is acquired`
	c.mu.Unlock()
}

// panic ends the path it is on.
func panicEnds(j *Journal, c *cPanicEnds, x bool) {
	if x {
		j.mu.Lock()
		panic("boom")
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// A deferred function literal's Unlock runs at function end: j.mu stays
// held.
func deferHeld(j *Journal, c *cDeferHeld) {
	j.mu.Lock()
	defer func() { j.mu.Unlock() }()
	c.mu.Lock() // want `leaf lock obs.Journal.mu is held in deferHeld while obs.cDeferHeld.mu is acquired`
	c.mu.Unlock()
}

func deferFree(j *Journal, c *cDeferFree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j.mu.Lock()
	j.mu.Unlock()
}

func goHeld(j *Journal, c *cGoHeld) {
	go func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		c.mu.Lock() // want `leaf lock obs.Journal.mu is held in goHeld while obs.cGoHeld.mu is acquired`
		c.mu.Unlock()
	}()
}

// The spawner's held set does not flow into the goroutine.
func goFree(j *Journal, c *cGoFree) {
	j.mu.Lock()
	defer j.mu.Unlock()
	go func() {
		c.mu.Lock()
		c.mu.Unlock()
	}()
}

func litHeld(j *Journal, c *cLitHeld) func() {
	return func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		c.mu.Lock() // want `leaf lock obs.Journal.mu is held in litHeld while obs.cLitHeld.mu is acquired`
		c.mu.Unlock()
	}
}

// A literal's locks are its own: j.mu is not held after the call.
func litFree(j *Journal, c *cLitFree) {
	f := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	f()
	c.mu.Lock()
	c.mu.Unlock()
}
