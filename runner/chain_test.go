package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro"
)

// TestCheckpointEveryChainCompletes pins the chained-checkpoint
// contract: a CheckpointEvery run finishes with exactly the same final
// statistics as an uninterrupted run, having parked a durable snapshot
// at every k-claim boundary along the way.
func TestCheckpointEveryChainCompletes(t *testing.T) {
	rn := New(Config{MaxConcurrent: 2})
	defer rn.Close()
	prog := finiteProgram(t, 64)

	ref, err := rn.Submit(Submission{Program: prog, Options: repro.Options{Procs: 4, Scheme: "gss"}})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []*repro.Checkpoint
	r, err := rn.Submit(Submission{
		Program:         prog,
		Options:         repro.Options{Procs: 4, Scheme: "gss"},
		CheckpointEvery: 4,
		OnSnapshot: func(ck *repro.Checkpoint) {
			mu.Lock()
			seen = append(seen, ck)
			mu.Unlock()
		},
		Label: "chained",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Wait(context.Background())
	if err != nil {
		t.Fatalf("chained run: %v", err)
	}
	if st := r.State(); st != StateDone {
		t.Fatalf("state = %v, want done", st)
	}
	f, g := refRes.Stats, got.Stats
	if g.Iterations != f.Iterations || g.Chunks != f.Chunks || g.Instances != f.Instances ||
		g.Exits != f.Exits {
		t.Errorf("chained stats %+v\nuninterrupted %+v", g, f)
	}
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n == 0 {
		t.Fatal("chain parked no periodic snapshots")
	}
	if int64(n) != r.Snapshots() {
		t.Errorf("OnSnapshot fired %d times, Snapshots() = %d", n, r.Snapshots())
	}
	for i, ck := range seen {
		if ck == nil || ck.Snapshot == nil || len(ck.Snapshot.ICBs) == 0 {
			t.Fatalf("snapshot %d is not resumable: %+v", i, ck)
		}
	}

	// Every intermediate snapshot is independently resumable: restoring
	// the last one completes with the reference totals.
	res, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Procs: 4, Scheme: "gss", Resume: seen[n-1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := res.Wait(context.Background())
	if err != nil {
		t.Fatalf("resume from chain snapshot: %v", err)
	}
	if rres.Stats.Iterations != f.Iterations || rres.Stats.Chunks != f.Chunks {
		t.Errorf("resume from chain snapshot: %+v, want %+v", rres.Stats, f)
	}
}

// TestCheckpointEveryYieldsToPauseRequest: a RequestCheckpoint on a
// chained run must stop the chain (state checkpointed, snapshot
// parked), not be swallowed as a periodic checkpoint.
func TestCheckpointEveryYieldsToPauseRequest(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	started := make(chan struct{})
	var once sync.Once
	r, err := rn.Submit(Submission{
		Program: finiteProgram(t, 1<<30),
		Options: repro.Options{
			Procs: 4, Engine: repro.EngineReal,
			Observe: func(repro.Live) { once.Do(func() { close(started) }) },
		},
		CheckpointEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	for !r.RequestCheckpoint() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("chained run did not yield to the pause request")
	}
	if st := r.State(); st != StateCheckpointed {
		t.Fatalf("state = %v, want checkpointed", st)
	}
	if ck := r.Checkpoint(); ck == nil || ck.Snapshot == nil {
		t.Fatal("paused chain has no snapshot")
	}
}

// TestCheckpointEveryPreemption: a chained run evicted by a
// higher-priority submission yields through a snapshot, requeues, and
// still finishes with uninterrupted totals.
func TestCheckpointEveryPreemption(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Scheduler: "wfq", Tenants: map[string]Tenant{
		"gold": {Priority: 10},
	}})
	defer rn.Close()
	const bound = 600

	started := make(chan struct{})
	var once sync.Once
	low, err := rn.Submit(Submission{
		Program: finiteProgram(t, bound),
		Options: repro.Options{
			Procs: 2, Scheme: "ss",
			Observe: func(repro.Live) { once.Do(func() { close(started) }) },
		},
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	high, err := rn.Submit(Submission{
		Program: finiteProgram(t, 40),
		Options: repro.Options{Procs: 2},
		Tenant:  "gold",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := high.Wait(ctx); err != nil {
		t.Fatalf("preemptor: %v", err)
	}
	got, err := low.Wait(ctx)
	if err != nil {
		t.Fatalf("preempted chain: %v", err)
	}
	if got.Stats.Iterations != bound {
		t.Errorf("preempted chain executed %d iterations, want exactly %d", got.Stats.Iterations, bound)
	}
	if st := rn.Stats(); st.Preempted > 0 {
		// Preemption landed (it can race a fast chain's completion; the
		// exactness above must hold either way).
		if low.h.Attempts() < 2 {
			t.Errorf("preempted chain has %d attempt(s), want >= 2", low.h.Attempts())
		}
	}
}

// TestDoneRunCompacts pins what a done run keeps: the executor probe
// and the chain's last restore point are released at finalization, and
// the frozen counters read exactly as the live probe did.
func TestDoneRunCompacts(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	var last atomic.Pointer[repro.Live]
	r, err := rn.Submit(Submission{
		Program: finiteProgram(t, 64),
		Options: repro.Options{
			Procs:   4,
			Scheme:  "gss",
			Observe: func(lv repro.Live) { last.Store(&lv) },
		},
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Wait(context.Background())
	if err != nil {
		t.Fatalf("chained run: %v", err)
	}
	if r.Snapshots() == 0 {
		t.Fatal("chain parked no periodic snapshots: nothing to compact")
	}
	after := r.Progress()
	if r.probe.Load() != nil {
		t.Error("done run still holds its executor probe")
	}
	if ck := r.Checkpoint(); ck != nil {
		t.Errorf("done run still holds a restore point: %+v", ck)
	}
	if after.Iterations != res.Stats.Iterations {
		t.Errorf("compacted progress reports %d iterations, result %d", after.Iterations, res.Stats.Iterations)
	}

	// Undo the compaction: the handle as it was before finalization
	// must report the same progress.
	r.final.Store(nil)
	r.probe.Store(last.Load())
	if before := r.Progress(); before != after {
		t.Errorf("progress changed by compaction:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestDoneRunReleasesProgram pins that a done run stops pinning its
// compiled program — the manager drops the job's closures, and the
// result keeps the program only for a traced run's Gantt chart — while
// the handle reads the same label, tenant, progress and result. A run
// that ends checkpointed keeps its snapshot and still resumes.
func TestDoneRunReleasesProgram(t *testing.T) {
	rn := New(Config{
		MaxConcurrent: 1,
		Tenants:       map[string]Tenant{"gold": {Weight: 3}},
		// A watched, checkpointable run carries every job closure:
		// Run, Preempt, Heartbeat and Diagnose.
		Watchdog: WatchdogConfig{Interval: time.Minute},
	})
	defer rn.Close()
	// The program is reachable only through the run from here on.
	submit := func() (*Run, weak.Pointer[repro.Program]) {
		prog := finiteProgram(t, 64)
		r, err := rn.Submit(Submission{
			Program: prog,
			Options: repro.Options{Procs: 4, Scheme: "gss", Checkpointable: true},
			Label:   "kept",
			Tenant:  "gold",
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, weak.Make(prog)
	}
	r, prog := submit()
	res, err := r.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := r.Progress()
	// The runner's outcome-folding goroutine holds the submission until
	// it has run; give it time on a loaded host.
	for deadline := time.Now().Add(5 * time.Second); prog.Value() != nil && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if prog.Value() != nil {
		t.Error("done run still pins its compiled program")
	}
	if r.Label() != "kept" || r.Tenant() != "gold" {
		t.Errorf("done run reads label %q tenant %q", r.Label(), r.Tenant())
	}
	if after := r.Progress(); after != before || after.State != "done" || after.Iterations != 64 {
		t.Errorf("progress after release %+v, at finish %+v", after, before)
	}
	if got, err := r.Result(); err != nil || got != res || got.Stats.Iterations != 64 {
		t.Errorf("result after release: %v (%+v), want the finished %+v", err, got, res)
	}

	prog2 := finiteProgram(t, 64)
	paused, err := rn.Submit(Submission{
		Program: prog2,
		Options: repro.Options{Procs: 4, Scheme: "gss", CheckpointAfter: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paused.Wait(context.Background()); err == nil {
		t.Fatal("CheckpointAfter run finished instead of pausing")
	}
	ck := paused.Checkpoint()
	if paused.State() != StateCheckpointed || ck == nil {
		t.Fatalf("state %v, checkpoint %v: want a parked snapshot", paused.State(), ck)
	}
	resumed, err := rn.Submit(Submission{
		Program: prog2,
		Options: repro.Options{Procs: 4, Scheme: "gss", Resume: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Wait(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Stats.Iterations != 64 {
		t.Errorf("resumed run reports %d iterations, want 64", got.Stats.Iterations)
	}
}
