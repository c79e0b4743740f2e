package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro"
)

// job is one generated submission: the program the daemon receives and
// the iteration count a correct run of it executes.
type job struct {
	Program    string  `json:"program"`
	Options    runOpts `json:"options"`
	Iterations int64   `json:"-"`
}

// runOpts is the subset of loopschedd's submit options the workloads set.
type runOpts struct {
	Procs  int    `json:"procs,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Engine string `json:"engine,omitempty"`
}

func (o runOpts) repro() repro.Options {
	return repro.Options{Procs: o.Procs, Scheme: o.Scheme, Engine: repro.EngineKind(o.Engine)}
}

// body is the POST /v1/runs request for the job.
func (j job) body() []byte {
	b, err := json.Marshal(j)
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return b
}

// workload is one traffic mix: how many daemons, how many closed-loop
// clients, and the program each client submits next.
type workload struct {
	Name    string
	Nodes   int // 1 = single daemon; more = a cluster with journals
	Clients int
	Gen     func(rng *rand.Rand) job
	// CheckpointEvery is the snapshot period, in chunk claims, a
	// clustered daemon applies to every submission; 0 for one node.
	CheckpointEvery int64
	// Virtual marks workloads whose runs execute on the virtual engine,
	// so vmachine.host_ns_per_iter comes from the daemon's own elapsed
	// time instead of an in-process replay.
	Virtual bool
	// RoundRuns > 0 makes the workload count-based: its one client
	// drives rounds, each on a fresh daemon that serves WarmRuns
	// unmeasured runs and then RoundRuns measured ones, until the
	// measured windows fill the run; the end-to-end figures are taken
	// over the rounds (see endToEnd). Equal rounds keep the daemon's
	// memory, which grows with every retained run, independent of the
	// host's speed, and a burst of host noise moves a round, not the
	// figure.
	// RoundRuns = 0 makes it time-based: one deployment, one window.
	WarmRuns, RoundRuns int
	// Setups is how many set-ups a run times at least, for setup_s.
	Setups int
}

var workloads = []workload{
	{Name: "serve-tiny", Nodes: 1, Clients: 1, Gen: genTiny, WarmRuns: 100, RoundRuns: 3000, Setups: 15},
	{Name: "nest-spin", Nodes: 1, Clients: 1, Gen: genSpin, WarmRuns: 2, RoundRuns: 40, Setups: 15},
	{Name: "cluster-durable", Nodes: 3, Clients: 2, Gen: genDurable, CheckpointEvery: 1000, Virtual: true, Setups: 5},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// genTiny draws a 16–128-iteration program of one of three shapes: a
// flat doall, a two-level nest, or the paper's Fig. 1 structure (nested
// doalls, a serial loop, an if and a trailing loop). The real engine
// accounts work without executing it, so the kernel costs tens of
// microseconds and the serving path dominates.
func genTiny(rng *rand.Rand) job {
	w := 10 + rng.IntN(991)
	var src string
	var iters int64
	switch rng.IntN(3) {
	case 0:
		n := 16 + rng.IntN(113)
		src = fmt.Sprintf("doall I = 1..%d { work %d }", n, w)
		iters = int64(n)
	case 1:
		a := 2 + rng.IntN(7)
		lo, hi := (16+a-1)/a, 128/a
		b := lo + rng.IntN(hi-lo+1)
		src = fmt.Sprintf("doall I = 1..%d { doall J = 1..%d { work %d } }", a, b, w)
		iters = int64(a * b)
	default:
		b := 1 + rng.IntN(7)
		src = fmt.Sprintf(`doall I = 1..2 {
  doall A = 1..%[1]d { work %[2]d }
  doall J = 1..2 { doall B = 1..%[1]d { work %[2]d } }
  serial K = 1..2 {
    doall C = 1..%[1]d { work %[2]d }
    doall D = 1..%[1]d { work %[2]d }
  }
  doall E = 1..%[1]d { work %[2]d }
}
if (1 == 1) { doall F = 1..%[1]d { work %[2]d } } else { doall G = 1..%[1]d { work %[2]d } }
doall H = 1..%[1]d { work %[2]d }`, b, w)
		iters = int64(18 * b)
	}
	return job{Program: src, Options: runOpts{Procs: 2, Engine: "real"}, Iterations: iters}
}

// spinInner are triangular inner bounds over I = 1..384 that all give
// 73,920 iterations in 384 inner instances; the seed picks among them.
var spinInner = []string{"I", "385-I"}

// genSpin is the kernel-bound nest: 73,920 one-microsecond iterations
// busy-waited on two processors under self-scheduling.
func genSpin(rng *rand.Rand) job {
	src := fmt.Sprintf("doall I = 1..384 { doall J = 1..%s { work 1000 } }", spinInner[rng.IntN(len(spinInner))])
	return job{
		Program:    src,
		Options:    runOpts{Procs: 2, Scheme: "ss", Engine: "real-spin"},
		Iterations: 73920,
	}
}

// genDurable is an 8,256-iteration triangular nest on the default
// virtual engine: with -checkpoint-every 1000 and chunk size 1 every run
// journals about eight snapshots.
func genDurable(rng *rand.Rand) job {
	inner := []string{"I", "129-I"}[rng.IntN(2)]
	src := fmt.Sprintf("doall I = 1..128 { doall J = 1..%s { work %d } }", inner, 50+rng.IntN(151))
	return job{Program: src, Options: runOpts{Scheme: "ss"}, Iterations: 8256}
}

// clientRNG is client c's program stream for a seed: the same seed
// replays the same submissions in the same order on every client.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))
}
