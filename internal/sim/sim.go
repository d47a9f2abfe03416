// Package sim provides a small discrete-event simulation kernel shared by
// the DRAM model and the ORAM timing controllers.
//
// All simulated components run in a single clock domain of 0.625 ns ticks:
// the Palermo controller clocks at 1.6 GHz and the DDR4-3200 command clock
// at 1600 MHz, which have identical periods (see DESIGN.md §4.2).
//
// The kernel is allocation-lean by design: the event queue is a concrete
// binary heap (no container/heap interface boxing), Signals and Batches are
// carved from engine-owned slabs, and drained waiter slices are recycled
// through a free list. A full sweep dispatches tens of millions of events,
// so per-event allocations dominate harness overhead if left unchecked
// (DESIGN.md §4.2). An Engine and everything allocated from it must be
// confined to one goroutine; the sweep runner (internal/exp) gives each
// simulation cell its own Engine.
package sim

// Tick is a point in simulated time, measured in 0.625 ns controller cycles.
type Tick uint64

// TickNS converts a tick count to nanoseconds.
func TickNS(t Tick) float64 { return float64(t) * 0.625 }

// event is a callback scheduled to run at a particular tick.
type event struct {
	at  Tick
	seq uint64 // tie-breaker: FIFO among events at the same tick
	fn  func()
}

// before reports whether a sorts strictly before b: earlier tick first,
// FIFO within a tick.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slabChunk is how many Signals/Batches one slab allocation amortizes over.
const slabChunk = 64

// Engine is a discrete-event simulator. The zero value is ready to use.
// An Engine is not safe for concurrent use; run one Engine per goroutine.
type Engine struct {
	now    Tick
	seq    uint64
	events []event // concrete binary min-heap ordered by event.before

	sigSlab    []Signal   // bump-allocated backing store for NewSignal
	batchSlab  []Batch    // bump-allocated backing store for NewBatch
	waiterPool [][]func() // recycled waiter slices, returned by Signal.Fire
}

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// push inserts ev into the heap (sift-up).
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

// pop removes and returns the minimum event (sift-down).
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure to the GC
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.events = h
	return top
}

// At schedules fn to run at absolute tick t. Scheduling in the past runs fn
// at the current time (on the next Run step), never before already-pending
// events at earlier ticks.
func (e *Engine) At(t Tick, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d ticks from now.
func (e *Engine) After(d Tick, fn func()) { e.At(e.now+d, fn) }

// Step runs the next pending event, advancing the clock. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= limit. Events scheduled beyond
// limit remain pending. It reports whether any pending events remain.
func (e *Engine) RunUntil(limit Tick) bool {
	for {
		if len(e.events) == 0 {
			return false
		}
		if e.events[0].at > limit {
			return true
		}
		e.Step()
	}
}

// allocSignal carves a Signal from the engine's slab.
func (e *Engine) allocSignal() *Signal {
	if len(e.sigSlab) == 0 {
		e.sigSlab = make([]Signal, slabChunk)
	}
	s := &e.sigSlab[0]
	e.sigSlab = e.sigSlab[1:]
	return s
}

// allocBatch carves a Batch from the engine's slab.
func (e *Engine) allocBatch() *Batch {
	if len(e.batchSlab) == 0 {
		e.batchSlab = make([]Batch, slabChunk)
	}
	b := &e.batchSlab[0]
	e.batchSlab = e.batchSlab[1:]
	return b
}

// getWaiters hands out a recycled waiter slice, if one is available.
func (e *Engine) getWaiters() []func() {
	if n := len(e.waiterPool); n > 0 {
		w := e.waiterPool[n-1]
		e.waiterPool = e.waiterPool[:n-1]
		return w
	}
	return nil
}

// putWaiters returns a drained waiter slice to the pool.
func (e *Engine) putWaiters(w []func()) {
	for i := range w {
		w[i] = nil
	}
	if cap(w) > 0 && len(e.waiterPool) < 64 {
		e.waiterPool = append(e.waiterPool, w[:0])
	}
}

// Signal is a one-shot dependency token: callbacks registered with Wait run
// when Fire is called (immediately if already fired). It is the building
// block for protocol dependencies (west→east PE sibling clears, CP responses,
// tree-write locks).
type Signal struct {
	eng     *Engine
	fired   bool
	firedAt Tick
	waiters []func()
}

// NewSignal creates a Signal bound to the engine.
func NewSignal(eng *Engine) *Signal {
	s := eng.allocSignal()
	s.eng = eng
	return s
}

// NewFiredSignal creates a Signal that is already fired (a satisfied
// dependency).
func NewFiredSignal(eng *Engine) *Signal {
	s := NewSignal(eng)
	s.fired = true
	s.firedAt = eng.Now()
	return s
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the tick at which the signal fired; valid only if Fired.
func (s *Signal) FiredAt() Tick { return s.firedAt }

// Fire marks the dependency satisfied and schedules all waiters at the
// current tick. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	s.firedAt = s.eng.Now()
	for _, fn := range s.waiters {
		s.eng.At(s.eng.Now(), fn)
	}
	if s.waiters != nil {
		s.eng.putWaiters(s.waiters)
		s.waiters = nil
	}
}

// Wait registers fn to run once the signal fires. If the signal has already
// fired, fn is scheduled immediately.
func (s *Signal) Wait(fn func()) {
	if s.fired {
		s.eng.At(s.eng.Now(), fn)
		return
	}
	if s.waiters == nil {
		s.waiters = s.eng.getWaiters()
	}
	s.waiters = append(s.waiters, fn)
}

// WaitAll invokes fn after every signal in deps has fired. An empty deps
// slice schedules fn immediately.
func WaitAll(eng *Engine, deps []*Signal, fn func()) {
	n := 0
	for _, d := range deps {
		if !d.Fired() {
			n++
		}
	}
	if n == 0 {
		eng.At(eng.Now(), fn)
		return
	}
	remaining := n
	for _, d := range deps {
		if d.Fired() {
			continue
		}
		d.Wait(func() {
			remaining--
			if remaining == 0 {
				fn()
			}
		})
	}
}

// Batch is a countdown barrier: Done is called once per expected completion
// and the attached signal fires when the count reaches zero. A Batch with
// zero expected completions fires immediately upon Arm.
type Batch struct {
	remaining int
	sig       *Signal
}

// NewBatch creates a batch expecting n completions.
func NewBatch(eng *Engine, n int) *Batch {
	b := eng.allocBatch()
	b.remaining = n
	b.sig = NewSignal(eng)
	if n == 0 {
		b.sig.Fire()
	}
	return b
}

// Done records one completion.
func (b *Batch) Done() {
	if b.remaining <= 0 {
		return
	}
	b.remaining--
	if b.remaining == 0 {
		b.sig.Fire()
	}
}

// Sig returns the signal that fires when the batch completes.
func (b *Batch) Sig() *Signal { return b.sig }
