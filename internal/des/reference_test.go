package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refSim is the coordinator-loop simulator the package used to be: a
// central goroutine pops the (time, sequence) heap and grants every
// single step, and each process yields back to it after every advance.
// It is the semantic reference the handoff simulator is checked against.
type refSim struct {
	pq      refHeap
	seq     int64
	yield   chan struct{}
	nproc   int
	maxTime Time
}

type refProcess struct {
	id       int
	sim      *refSim
	now      Time
	gate     chan Time
	finished bool
}

func newRefSim() *refSim { return &refSim{yield: make(chan struct{})} }

func (p *refProcess) ID() int        { return p.id }
func (p *refProcess) Now() Time      { return p.now }
func (p *refProcess) Advance(d Time) { p.AdvanceTo(p.now + d) }

func (p *refProcess) AdvanceTo(t Time) {
	if t < p.now {
		t = p.now
	}
	p.sim.push(t, p)
	p.sim.yield <- struct{}{}
	p.now = <-p.gate
}

func (s *refSim) spawn(id int, start Time, fn func(proc)) {
	p := &refProcess{id: id, sim: s, gate: make(chan Time)}
	s.nproc++
	s.push(start, p)
	go func() {
		p.now = <-p.gate
		fn(p)
		p.finished = true
		s.yield <- struct{}{}
	}()
}

func (s *refSim) run() Time {
	finished := 0
	for s.pq.Len() > 0 {
		ev := heap.Pop(&s.pq).(refEvent)
		if ev.at > s.maxTime {
			s.maxTime = ev.at
		}
		ev.p.gate <- ev.at
		<-s.yield
		if ev.p.finished {
			finished++
		}
	}
	if finished != s.nproc {
		panic(fmt.Sprintf("refSim: %d of %d processes finished", finished, s.nproc))
	}
	return s.maxTime
}

func (s *refSim) push(at Time, p *refProcess) {
	s.seq++
	heap.Push(&s.pq, refEvent{at: at, seq: s.seq, p: p})
}

type refEvent struct {
	at  Time
	seq int64
	p   *refProcess
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// proc is the process surface both simulators share.
type proc interface {
	ID() int
	Now() Time
	Advance(d Time)
	AdvanceTo(t Time)
}

// simulator adapts either simulator to one spawn/run surface.
type simulator interface {
	spawn(id int, start Time, fn func(proc))
	run() Time
}

type handoffSim struct{ s *Sim }

func (h handoffSim) spawn(id int, start Time, fn func(proc)) {
	h.s.Spawn(id, start, func(p *Process) { fn(p) })
}
func (h handoffSim) run() Time { return h.s.Run() }

// Step kinds of a generated process program.
const (
	opAdvance     = iota // Advance(d), d may be 0
	opAdvanceTo          // AdvanceTo(now + d)
	opAdvancePast        // AdvanceTo(now - d - 1): in the past
	opAdvanceAbs         // AdvanceTo(d): an absolute instant, often past
	numOps
)

type step struct {
	kind int
	d    Time
}

// scenario is a randomly generated simulation: one start time and one
// step list per process. Small durations make equal-time ties common;
// empty step lists are processes that never advance.
type scenario struct {
	starts []Time
	steps  [][]step
}

func (scenario) Generate(r *rand.Rand, _ int) reflect.Value {
	p := 1 + r.Intn(16)
	sc := scenario{starts: make([]Time, p), steps: make([][]step, p)}
	for i := 0; i < p; i++ {
		sc.starts[i] = Time(r.Intn(4))
		n := r.Intn(12)
		if r.Intn(4) == 0 {
			n = 0 // finishes at its start without advancing
		}
		for k := 0; k < n; k++ {
			sc.steps[i] = append(sc.steps[i], step{kind: r.Intn(numOps), d: Time(r.Intn(4))})
		}
	}
	return reflect.ValueOf(sc)
}

type mark struct {
	id  int
	now Time
}

// play runs sc on sim and returns the (id, now) trace of every step
// together with the makespan.
func (sc scenario) play(sim simulator) ([]mark, Time) {
	var trace []mark
	for i := range sc.steps {
		steps := sc.steps[i]
		sim.spawn(i, sc.starts[i], func(p proc) {
			trace = append(trace, mark{p.ID(), p.Now()})
			for _, st := range steps {
				switch st.kind {
				case opAdvance:
					p.Advance(st.d)
				case opAdvanceTo:
					p.AdvanceTo(p.Now() + st.d)
				case opAdvancePast:
					p.AdvanceTo(p.Now() - st.d - 1)
				case opAdvanceAbs:
					p.AdvanceTo(st.d)
				}
				trace = append(trace, mark{p.ID(), p.Now()})
			}
		})
	}
	end := sim.run()
	return trace, end
}

func TestQuickMatchesCoordinatorReference(t *testing.T) {
	f := func(sc scenario) bool {
		wantTrace, wantEnd := sc.play(newRefSim())
		gotTrace, gotEnd := sc.play(handoffSim{New()})
		if gotEnd != wantEnd || !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Logf("P=%d: makespan %d want %d\n got  %v\n want %v",
				len(sc.steps), gotEnd, wantEnd, gotTrace, wantTrace)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAdvanceAllocatesNothing(t *testing.T) {
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("P=%d", procs), func(t *testing.T) {
			s := New()
			stop := false
			allocs := -1.0
			s.Spawn(0, 0, func(p *Process) {
				p.Advance(1)
				allocs = testing.AllocsPerRun(1000, func() { p.Advance(2) })
				stop = true
			})
			// Peers on co-prime periods give the measured process both
			// run-on steps and handoffs, ties included.
			for i := 1; i < procs; i++ {
				d := Time(i + 1)
				s.Spawn(i, 0, func(p *Process) {
					for !stop {
						p.Advance(d)
					}
				})
			}
			s.Run()
			if allocs != 0 {
				t.Errorf("steady-state Advance allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}
