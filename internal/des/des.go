// Package des is a minimal deterministic discrete-event simulation core.
//
// A Sim runs a set of processes over virtual time. Each process is a
// goroutine, but execution is strictly sequential: exactly one process
// holds the CPU at a time, and it is always the one with the smallest
// (wake-up time, FIFO sequence) pair. There is no coordinator goroutine;
// the running process schedules its successor itself:
//
//   - Run-on. A process advancing to a time strictly earlier than every
//     pending event would be the next event popped, so it moves its clock
//     and keeps running without blocking. An advance that ties the
//     earliest pending event still yields: the pending event carries the
//     older sequence number, which is the FIFO tie-break.
//   - Direct handoff. Otherwise the process swaps its wake-up event in for
//     the earliest pending one and sends that event's process the CPU on
//     its gate channel, then blocks on its own gate. A finishing process
//     hands off the same way. Run only starts the first process and waits
//     for the last one to finish.
//
// Either way the process that runs next is the one a central loop popping
// the same (time, sequence) heap after every step would have granted, so
// the event order — every trace and every makespan — is the same as with
// a coordinator that grants each step. Consequently:
//
//   - Runs are fully deterministic: same inputs, same event order.
//   - Shared Go data structures accessed between Advance calls are
//     effectively atomic in virtual time (no two processes run
//     concurrently), and every handoff is a channel operation, which
//     establishes the happens-before edges the race detector needs.
//
// Processes must block only via Advance/AdvanceTo (or by returning). A
// process that blocked on anything else would stall the whole simulation;
// because execution is sequential, ordinary mutexes are always uncontended
// and therefore safe.
package des

import "fmt"

// Time is virtual time in abstract cycle units.
type Time = int64

// Sim is a deterministic discrete-event simulator. Create with New, add
// processes with Spawn, then call Run.
//
// The fields below are owned by whichever process holds the CPU; the
// gate handoffs order every access to them.
type Sim struct {
	pq       eventHeap
	seq      int64
	nproc    int
	finished int
	started  bool
	maxTime  Time
	done     chan struct{} // closed by the last process to finish
}

// New returns an empty simulator.
func New() *Sim {
	return &Sim{done: make(chan struct{})}
}

// Process is a handle held by a simulated process; all virtual-time
// operations go through it.
type Process struct {
	id   int
	sim  *Sim
	now  Time
	gate chan Time
}

// ID returns the identifier given to Spawn.
func (p *Process) ID() int { return p.id }

// Now returns the process's current virtual time.
func (p *Process) Now() Time { return p.now }

// Advance blocks the process for d units of virtual time. d must be >= 0;
// Advance(0) yields the processor at the current instant (other processes
// scheduled at the same time run first, in FIFO order).
func (p *Process) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative advance %d", d))
	}
	p.AdvanceTo(p.now + d)
}

// AdvanceTo blocks the process until virtual time t. If t is in the past,
// it behaves like Advance(0).
func (p *Process) AdvanceTo(t Time) {
	if t < p.now {
		t = p.now
	}
	s := p.sim
	s.seq++
	if len(s.pq) == 0 || t < s.pq[0].at {
		// Run-on: this wake-up is the earliest event, so it would be
		// granted next anyway.
		p.now = t
		if t > s.maxTime {
			s.maxTime = t
		}
		return
	}
	// The earliest pending event comes first (it is earlier, or equal
	// with an older sequence number): queue this wake-up in its place and
	// hand it the CPU.
	s.handoff(s.pq.replaceMin(event{at: t, seq: s.seq, p: p}))
	p.now = <-p.gate
}

// Spawn registers a new process that will run fn starting at virtual time
// start. It must be called before Run.
func (s *Sim) Spawn(id int, start Time, fn func(p *Process)) *Process {
	if s.started {
		panic("des: Spawn after Run")
	}
	p := &Process{id: id, sim: s, gate: make(chan Time)}
	s.nproc++
	s.seq++
	s.pq.push(event{at: start, seq: s.seq, p: p})
	go func() {
		p.now = <-p.gate // initial grant
		fn(p)
		s.finished++
		if len(s.pq) == 0 {
			close(s.done) // last one out
			return
		}
		s.handoff(s.pq.pop())
	}()
	return p
}

// Run drives the simulation until every process has finished, and returns
// the final virtual time (the makespan). It must be called exactly once,
// after all Spawn calls.
func (s *Sim) Run() Time {
	if s.started {
		panic("des: Run called twice")
	}
	s.started = true
	if len(s.pq) == 0 {
		return s.maxTime
	}
	s.handoff(s.pq.pop())
	<-s.done
	if s.finished != s.nproc {
		// Unreachable by construction: a live process always has exactly
		// one pending event in the heap or holds the CPU.
		panic(fmt.Sprintf("des: %d of %d processes finished with empty event queue", s.finished, s.nproc))
	}
	return s.maxTime
}

// handoff grants the CPU to the process of ev, which has just left the
// heap. The caller must not touch the Sim afterwards: its new owner may
// already be running.
func (s *Sim) handoff(ev event) {
	if ev.at > s.maxTime {
		s.maxTime = ev.at
	}
	ev.p.gate <- ev.at
}

type event struct {
	at  Time
	seq int64
	p   *Process
}

// eventHeap is a binary min-heap ordered by (at, seq). Sequence numbers
// are unique, so the pop order depends only on the set of events, not on
// how the heap arranged them.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	old[n] = event{} // drop the process reference
	*h = old[:n]
	h.down(0)
	return ev
}

// replaceMin returns the minimum and puts ev in its place: a push
// followed by a pop, in one sift, for an ev that is not the new minimum.
func (h eventHeap) replaceMin(ev event) event {
	min := h[0]
	h[0] = ev
	h.down(0)
	return min
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
