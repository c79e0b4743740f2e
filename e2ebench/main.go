// Command e2ebench is loopschedd's end-to-end benchmark. It starts fresh
// loopschedd processes, drives them over loopback HTTP with closed-loop
// clients, checks every run's output, and prints the end-to-end metrics
// (-trace 0) or the per-layer breakdown (-trace 1) of one workload.
// README.md in this directory describes the workloads and metrics;
// run.sh builds the daemon and this program and runs it:
//
//	bash e2ebench/run.sh --workload serve-tiny --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: serve-tiny, nest-spin, cluster-durable, or all of them in turn")
		seed         = flag.Int64("seed", 1, "workload seed: fixes every generated program and each client's submission order")
		seconds      = flag.Float64("seconds", 10, "measured time in seconds: the rounds' windows of a count-based workload add up to it; a time-based one measures one window this long")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics; 1: untraced and traced passes plus in-process layer timings")
		daemon       = flag.String("daemon", "", "loopschedd binary to benchmark")
		workdir      = flag.String("workdir", ".bench_build", "directory for daemon state and trace output")
	)
	flag.Parse()
	names := []string{*workloadName}
	if *workloadName == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if err := run(name, *seed, *seconds, *traceFlag, *daemon, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
}

func run(name string, seed int64, seconds float64, traced int, daemon, workdir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if daemon == "" {
		return errors.New("-daemon is required")
	}
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return fmt.Errorf("bad -seconds %v or -trace %d", seconds, traced)
	}
	// Every run must end within 180 s; the daemons' set-up and drain
	// and the output check share what the window leaves.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	measure := time.Duration(seconds * float64(time.Second))
	cfg := passConfig{
		Workload: w,
		Seed:     seed,
		Bin:      daemon,
		Dir:      dir,
		Warm:     measure / 10,
		Measure:  measure,
		Setups:   w.Setups,
	}
	var rep report
	if traced == 1 {
		rep, err = layers(ctx, cfg, workdir)
	} else {
		rep, err = endToEnd(ctx, cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd runs one untraced pass and derives the end-to-end metrics.
// Throughput and latency are the better quartile of the rounds'
// figures (see bestQuartile), memory the median over the rounds.
func endToEnd(ctx context.Context, cfg passConfig) (report, error) {
	p, err := runPass(ctx, cfg)
	if err != nil {
		return report{}, err
	}
	var rates, p50s, p90s, rss []float64
	for _, rd := range p.Rounds {
		lat := latenciesMS(rd.measured())
		rates = append(rates, throughput(rd))
		p50s = append(p50s, percentile(lat, 50).Value)
		p90s = append(p90s, percentile(lat, 90).Value)
		rss = append(rss, float64(rd.EndProc.HWMKB)/1024)
	}
	setups := make([]float64, len(p.Setups))
	for i, s := range p.Setups {
		setups[i] = s.Seconds()
	}
	// CPU time is read in 10 ms clock ticks, too coarse for a round, so
	// cpu_ms_per_run is the windows' total over the runs they completed.
	window, done, cpu := p.window()
	m := map[string]metric{
		"runs_per_s":     {bestQuartile(rates, true), "1/s"},
		"latency_ms_p50": {bestQuartile(p50s, false), "ms"},
		"latency_ms_p90": {bestQuartile(p90s, false), "ms"},
		"cpu_ms_per_run": {ms(cpu) / float64(max(done, 1)), "ms"},
		"rss_peak_mb":    {median(rss), "MB"},
		"setup_s":        {median(setups), "s"},
	}

	attempted, failed := len(p.records()), p.failures()
	fmt.Printf("%s seed %d: %d runs attempted, %d failed, %d completed in %d round(s) measuring %.1f s on %d node(s)\n",
		cfg.Workload.Name, cfg.Seed, attempted, failed, done, len(p.Rounds), window.Seconds(), cfg.Workload.Nodes)
	printMetrics(m)
	lat := latenciesMS(p.measured())
	for _, q := range []struct {
		name string
		p    pct
	}{{"latency_ms_p50", percentile(lat, 50)}, {"latency_ms_p90", percentile(lat, 90)}, {"latency_ms_p99", percentile(lat, 99)}} {
		note := "counts"
		if !q.p.Counts() {
			note = fmt.Sprintf("does not count: fewer than %d samples beyond it", minBeyond)
		}
		fmt.Printf("  %-16s pooled over the rounds: %.6g ms over n=%d, %d beyond: %s\n", q.name, q.p.Value, q.p.N, q.p.Beyond, note)
	}
	fmt.Printf("  %-16s %.6f ratio\n", "error_rate", float64(failed)/float64(max(attempted, 1)))
	fmt.Printf("  setup_s over %d set-ups: min %.4f, median %.4f, max %.4f s\n",
		len(setups), slices.Min(setups), median(setups), slices.Max(setups))
	if cfg.Workload.Nodes > 1 {
		proxied, busiest := placement(okRecords(p.measured()))
		fmt.Printf("  placement: proxied share %.3f, busiest node share %.3f\n", proxied, busiest)
	}
	printRounds("runs_per_s", rates)
	printRounds("latency_ms_p50", p50s)
	printRounds("latency_ms_p90", p90s)
	printNoise(p)
	printTime(p)
	printFailures(p)
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// bestQuartile is the quartile of the rounds' figures on the side of
// the better value: the upper quartile of rates, the lower quartile of
// times. Host noise on a shared VM, stolen or contended CPU, only ever
// slows a round down, so this figure holds while up to three rounds in
// four are slowed; a regression in the program slows every round.
func bestQuartile(v []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(v, 75).Value
	}
	return percentile(v, 25).Value
}

// throughput is a round's completed runs per second: the median over
// ten slices of its window holding equal numbers of completions, so a
// burst of host noise moves one slice and not the figure.
func throughput(rd *roundResult) float64 {
	var fin []float64
	for _, r := range rd.Records {
		if r.Err == "" && r.Finish >= rd.Win && r.Finish <= rd.End {
			fin = append(fin, r.Finish.Seconds())
		}
	}
	sort.Float64s(fin)
	const slices = 10
	k := len(fin) / slices
	if k < 2 {
		return float64(len(fin)) / (rd.End - rd.Win).Seconds()
	}
	rates := make([]float64, 0, slices)
	for i := 0; i+k < len(fin); i += k {
		if d := fin[i+k] - fin[i]; d > 0 {
			rates = append(rates, float64(k)/d)
		}
	}
	return median(rates)
}

func latenciesMS(recs []*runRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Err == "" {
			out = append(out, ms(r.Latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printNoise records, next to every workload run, what explains its
// noise: hypervisor steal and the daemons' CPU over the windows.
func printNoise(p *passResult) {
	window, _, cpu := p.window()
	fmt.Printf("  noise: host.steal_share=%.4f daemon_cpu_s=%.2f (%.2f CPUs busy)\n",
		p.steal(), cpu.Seconds(), cpu.Seconds()/window.Seconds())
}

// printRounds prints the spread of one figure over the rounds.
func printRounds(name string, v []float64) {
	fmt.Printf("  rounds %-16s min %.6g q1 %.6g median %.6g q3 %.6g max %.6g over %d\n", name,
		slices.Min(v), percentile(v, 25).Value, median(v), percentile(v, 75).Value, slices.Max(v), len(v))
}

// printTime splits the pass's time between set-up, warm-up, the
// measured windows, the output check and shutdown.
func printTime(p *passResult) {
	var setup, warm, window, check, stop time.Duration
	for _, s := range p.Setups {
		setup += s
	}
	for _, rd := range p.Rounds {
		warm += rd.Win - rd.Began
		window += rd.End - rd.Win
		check += rd.Check
		stop += rd.Stop
	}
	fmt.Printf("  time: set-ups %.1f s, warm-ups %.1f s, windows %.1f s, output checks %.1f s, shutdowns %.1f s\n",
		setup.Seconds(), warm.Seconds(), window.Seconds(), check.Seconds(), stop.Seconds())
}

func printFailures(p *passResult) {
	shown := 0
	for _, r := range p.records() {
		if r.Err != "" && shown < 5 {
			fmt.Printf("  failed run: %s\n", r.Err)
			shown++
		}
	}
}
