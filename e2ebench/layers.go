package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/journal"
	"repro/internal/lang"
	"repro/runner"
)

// maxReplay caps how many of the traced pass's programs the in-process
// layer timings replay, so a fast workload's traced run stays short.
const maxReplay = 2000

// layers is the -trace 1 run: an untraced pass and a traced pass over
// fresh deployments with the same seed, each measuring half the run's
// time, then in-process timings of the layers the HTTP path hides. The
// traced pass adds one status GET per run; its p50 latency minus the
// untraced pass's is the tracing overhead.
func layers(ctx context.Context, cfg passConfig, workdir string) (report, error) {
	cfg.Setups = 1
	cfg.Warm, cfg.Measure = cfg.Warm/2, cfg.Measure/2
	ucfg := cfg
	ucfg.Dir = filepath.Join(cfg.Dir, "untraced")
	un, err := runPass(ctx, ucfg)
	if err != nil {
		return report{}, err
	}
	tcfg := cfg
	tcfg.Dir, tcfg.Traced = filepath.Join(cfg.Dir, "traced"), true
	tr, err := runPass(ctx, tcfg)
	if err != nil {
		return report{}, err
	}
	w := cfg.Workload
	m := map[string]metric{}
	recs := okRecords(tr.measured())
	if len(recs) == 0 {
		return report{}, errors.New("traced pass completed no run")
	}
	// Pooled medians, like every layer figure below, so the layer times
	// on the blocking path compare with the latency they are part of.
	latTraced := median(latenciesMS(recs))
	latUntraced := median(latenciesMS(un.measured()))

	// loopschedd: the client-visible stages of each run.
	var submit, tail, bytes, exec []float64
	for _, r := range recs {
		submit = append(submit, ms(r.Submit))
		tail = append(tail, ms(r.Latency()-r.Submit-r.Elapsed))
		bytes = append(bytes, float64(r.Bytes))
		exec = append(exec, ms(r.Elapsed))
	}
	// Memory and journal growth are taken from ready to the end of each
	// round's window, over every run completed by then.
	var rssPerRun []float64
	var journalGrowth int64
	completed := 0
	for _, rd := range tr.Rounds {
		n := 0
		for _, r := range rd.Records {
			if r.Err == "" && r.Finish <= rd.End {
				n++
			}
		}
		rssPerRun = append(rssPerRun, float64(rd.EndProc.RSSKB-rd.Ready.RSSKB)/float64(max(n, 1)))
		journalGrowth += rd.JournalEnd - rd.JournalReady
		completed += n
	}
	m["loopschedd.submit_ms_p50"] = metric{median(submit), "ms"}
	m["loopschedd.tail_ms_p50"] = metric{median(tail), "ms"}
	m["loopschedd.bytes_per_run"] = metric{median(bytes), "B"}
	m["loopschedd.rss_kb_per_run"] = metric{median(rssPerRun), "KB"}
	m["runner.exec_ms_p50"] = metric{median(exec), "ms"}

	// core, pool: the kernel counters each finished run returns.
	for name, f := range kernelFigures {
		var v []float64
		for _, r := range recs {
			if x, ok := f.fn(r.Status.Result); ok {
				v = append(v, x)
			}
		}
		m[name] = metric{median(v), f.unit}
	}

	// cluster: where runs landed and what a proxied progress stream costs.
	var proxiedTail, localTail []float64
	for _, r := range recs {
		t := ms(r.Latency() - r.Submit - r.Elapsed)
		if r.owner() != r.Node {
			proxiedTail = append(proxiedTail, t)
		} else {
			localTail = append(localTail, t)
		}
	}
	proxied, busiest := placement(recs)
	m["cluster.proxied_share"] = metric{proxied, "ratio"}
	m["cluster.proxied_tail_ms_p50"] = metric{median(proxiedTail), "ms"}
	m["cluster.local_tail_ms_p50"] = metric{median(localTail), "ms"}
	m["cluster.max_node_share"] = metric{busiest, "ratio"}
	m["journal.bytes_per_run"] = metric{float64(journalGrowth) / float64(max(completed, 1)), "B"}
	m["host.steal_share"] = metric{tr.steal(), "ratio"}
	m["trace.overhead_ms_p50"] = metric{latTraced - latUntraced, "ms"}

	// In-process: the same programs through the public functions of the
	// layers the HTTP path hides.
	jobs := replayJobs(cfg, tr)
	parse, compile, progs, err := timeFrontEnd(jobs)
	if err != nil {
		return report{}, err
	}
	m["lang.parse_us_p50"] = metric{median(parse), "us"}
	m["repro.compile_us_p50"] = metric{median(compile), "us"}
	queue, err := timeQueue(ctx, w, progs, jobs)
	if err != nil {
		return report{}, err
	}
	m["runner.queue_us_p50"] = metric{median(queue), "us"}
	var hostNS []float64
	if w.Virtual {
		for _, r := range recs {
			hostNS = append(hostNS, float64(r.Elapsed)/float64(r.Expect))
		}
	} else if hostNS, err = timeVirtual(progs, jobs); err != nil {
		return report{}, err
	}
	m["vmachine.host_ns_per_iter"] = metric{median(hostNS), "ns"}
	appendUS, err := timeJournal(cfg.Dir, tr.journals(), jobs)
	if err != nil {
		return report{}, err
	}
	m["journal.append_us_p50"] = metric{median(appendUS), "us"}

	// The layers on the blocking path, timed inside each layer; what the
	// client sees beyond them is HTTP, JSON and progress-stream delivery.
	inLayers := (m["lang.parse_us_p50"].Value+m["repro.compile_us_p50"].Value+m["runner.queue_us_p50"].Value)/1000 +
		m["runner.exec_ms_p50"].Value
	m["path.remainder_ms_p50"] = metric{latTraced - inLayers, "ms"}

	attempted := len(un.records()) + len(tr.records())
	failed := un.failures() + tr.failures()
	fmt.Printf("%s seed %d traced: %d runs traced (%d in the window), untraced p50 %.4f ms, traced p50 %.4f ms, %d failed of %d attempted\n",
		w.Name, cfg.Seed, len(tr.records()), len(recs), latUntraced, latTraced, failed, attempted)
	printMetrics(m)
	fmt.Printf("  blocking path: parse + compile + queue + exec = %.4f ms of latency p50 %.4f ms (%s), remainder %.4f ms\n",
		inLayers, latTraced, map[bool]string{true: "within", false: "EXCEEDS"}[inLayers <= latTraced], latTraced-inLayers)
	printNoise(tr)
	printFailures(un)
	printFailures(tr)
	path, err := writeSpans(workdir, cfg, tr)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("  spans: %s\n", path)
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// okRecords keeps the runs that passed the output check; in the traced
// pass each of them carries its fetched result.
func okRecords(recs []*runRecord) []*runRecord {
	var out []*runRecord
	for _, r := range recs {
		if r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

// placement returns the share of runs owned by a node other than the
// one they were submitted to, and the busiest node's share of runs.
func placement(recs []*runRecord) (proxied, busiest float64) {
	if len(recs) == 0 {
		return 0, 0
	}
	owners := map[string]int{}
	n := 0
	for _, r := range recs {
		owners[r.owner()]++
		if r.owner() != r.Node {
			n++
		}
	}
	top := 0
	for _, c := range owners {
		top = max(top, c)
	}
	return float64(n) / float64(len(recs)), float64(top) / float64(len(recs))
}

// kernelFigure derives one per-run figure from a run's result; ok is
// false when the run has no basis for it (a zero denominator).
type kernelFigure struct {
	unit string
	fn   func(res *runResult) (float64, bool)
}

func ratio(a, b int64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return float64(a) / float64(b), true
}

// kernelFigures are the eq. (1) terms and pool counters of one run.
var kernelFigures = map[string]kernelFigure{
	"core.utilization": {"ratio", func(r *runResult) (float64, bool) { return r.Utilization, true }},
	"core.body_excess_ns_per_iter": {"ns", func(r *runResult) (float64, bool) {
		var busy int64
		for _, b := range r.Busy {
			busy += b
		}
		return ratio(r.Stats.BodyTime-busy, r.Stats.Iterations)
	}},
	"core.o1_ns_per_chunk":    {"ns", func(r *runResult) (float64, bool) { return ratio(r.Stats.O1Time, r.Stats.Chunks) }},
	"core.o2_ns_per_search":   {"ns", func(r *runResult) (float64, bool) { return ratio(r.Stats.O2Time, r.Stats.Searches) }},
	"core.o3_ns_per_instance": {"ns", func(r *runResult) (float64, bool) { return ratio(r.Stats.O3Time, r.Stats.Instances) }},
	"core.unaccounted_share": {"ratio", func(r *runResult) (float64, bool) {
		s := r.Stats
		acc, ok := ratio(s.BodyTime+s.O1Time+s.O2Time+s.O3Time, int64(r.Procs)*r.Makespan)
		return 1 - acc, ok
	}},
	"core.imbalance_pct": {"%", func(r *runResult) (float64, bool) {
		if len(r.Busy) == 0 {
			return 0, false
		}
		var sum int64
		for _, b := range r.Busy {
			sum += b
		}
		hi := slices.Max(r.Busy)
		mean := float64(sum) / float64(len(r.Busy))
		if hi == 0 {
			return 0, false
		}
		return 100 * (float64(hi) - mean) / float64(hi), true
	}},
	"pool.lock_failures_per_run": {"count", func(r *runResult) (float64, bool) { return float64(r.Stats.Search.LockFailures), true }},
	"pool.sweeps_per_search":     {"count", func(r *runResult) (float64, bool) { return ratio(r.Stats.Search.Sweeps, r.Stats.Searches) }},
}

// replayJobs regenerates the programs the traced pass submitted, client
// by client in submission order, up to maxReplay in all.
func replayJobs(cfg passConfig, tr *passResult) []job {
	perClient := make([]int, cfg.Workload.Clients)
	for _, r := range tr.records() {
		perClient[r.Client]++
	}
	var jobs []job
	for c, n := range perClient {
		rng := clientRNG(cfg.Seed, c)
		for i := 0; i < n && i < maxReplay/len(perClient); i++ {
			jobs = append(jobs, cfg.Workload.Gen(rng))
		}
	}
	return jobs
}

// timeFrontEnd times lang.Parse and repro.Compile on each program.
func timeFrontEnd(jobs []job) (parseUS, compileUS []float64, progs []*repro.Program, err error) {
	for _, j := range jobs {
		t0 := time.Now()
		nest, err := lang.Parse(j.Program)
		t1 := time.Now()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("parse: %w", err)
		}
		prog, err := repro.Compile(nest)
		t2 := time.Now()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compile: %w", err)
		}
		parseUS = append(parseUS, us(t1.Sub(t0)))
		compileUS = append(compileUS, us(t2.Sub(t1)))
		progs = append(progs, prog)
	}
	return parseUS, compileUS, progs, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerBudget bounds each in-process replay.
const layerBudget = 2 * time.Second

// timeQueue submits the programs to an in-process runner configured as
// the daemon configures its own (four concurrent runs, queue limit 64)
// from the workload's number of closed-loop clients, and returns each
// run's wait between submission and start.
func timeQueue(ctx context.Context, w workload, progs []*repro.Program, jobs []job) ([]float64, error) {
	rn := runner.New(runner.Config{MaxConcurrent: 4, QueueLimit: 64, SampleInterval: 200 * time.Millisecond})
	defer rn.Close()
	deadline := time.Now().Add(layerBudget)
	var mu sync.Mutex
	var queue []float64
	var errs []error
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(progs) && time.Now().Before(deadline); i += w.Clients {
				run, err := rn.Submit(runner.Submission{
					Program:         progs[i],
					Options:         jobs[i].Options.repro(),
					CheckpointEvery: w.CheckpointEvery,
				})
				if err == nil {
					_, err = run.Wait(ctx)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					sub, started, _ := run.Times()
					queue = append(queue, us(started.Sub(sub)))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("in-process runner: %w", err)
	}
	return queue, nil
}

// timeVirtual runs the programs on the virtual engine in-process and
// returns host nanoseconds per iteration, for workloads whose daemons
// run a real engine.
func timeVirtual(progs []*repro.Program, jobs []job) ([]float64, error) {
	deadline := time.Now().Add(layerBudget)
	var out []float64
	for i := 0; i < len(progs) && time.Now().Before(deadline); i++ {
		opts := jobs[i].Options.repro()
		opts.Engine = repro.EngineVirtual
		t0 := time.Now()
		res, err := progs[i].Run(opts)
		if err != nil {
			return nil, fmt.Errorf("virtual run: %w", err)
		}
		out = append(out, float64(time.Since(t0))/float64(res.Stats.Iterations))
	}
	return out, nil
}

// timeJournal times journal.Append under SyncAlways. It appends the
// records the traced pass's daemons journaled, or, for a workload run
// without journals, submit-sized records of its programs.
func timeJournal(dir string, journals []string, jobs []job) ([]float64, error) {
	var recs []journal.Record
	for _, path := range journals {
		rs, err := journal.ReadFile(path)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	if len(journals) == 0 {
		for i, j := range jobs {
			recs = append(recs, journal.Record{Kind: 1, ID: fmt.Sprintf("run-%04d", i+1), Data: j.body()})
		}
	}
	path := filepath.Join(dir, "append.journal")
	jw, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(layerBudget)
	var out []float64
	for i := 0; i < len(recs) && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if err := jw.Append(recs[i].Kind, recs[i].ID, recs[i].Data); err != nil {
			jw.Close()
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, jw.Close()
}

// span is one timed interval of a run, as offsets from the pass start.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent string        `json:"parent,omitempty"`
}

// writeSpans writes the traced pass's spans, one run per line keyed by
// run ID, to <workdir>/trace/<workload>-seed<N>.jsonl.
func writeSpans(workdir string, cfg passConfig, tr *passResult) (string, error) {
	dir := filepath.Join(workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload.Name, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, r := range tr.records() {
		line := struct {
			*runRecord
			Spans []span `json:"spans"`
		}{r, []span{
			{Name: "run", Start: r.Start, End: max(r.Finish, r.StatusEnd)},
			{Name: "submit", Start: r.Start, End: r.Start + r.Submit, Parent: "run"},
			{Name: "stream", Start: r.Start + r.Submit, End: r.Finish, Parent: "run"},
			{Name: "status", Start: r.StatusStart, End: r.StatusEnd, Parent: "run"},
		}}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
