package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/runner"
)

// runStatus mirrors loopschedd's GET /v1/runs/{id} body.
type runStatus struct {
	runner.Progress
	Result *runResult `json:"result"`
}

type runResult struct {
	Makespan    int64         `json:"makespan"`
	Utilization float64       `json:"utilization"`
	Procs       int           `json:"procs"`
	Busy        []int64       `json:"busy"`
	Stats       core.Snapshot `json:"stats"`
}

// runRecord is everything the load process observed about one run.
// Times are offsets from the start of the pass.
type runRecord struct {
	Client int    `json:"client"`
	Node   string `json:"node"` // the node the run was submitted to
	ID     string `json:"id,omitempty"`
	Expect int64  `json:"expect_iterations"`

	Start  time.Duration `json:"start_ns"`
	Submit time.Duration `json:"submit_ns"` // POST round trip
	Finish time.Duration `json:"finish_ns"` // terminal progress line arrived
	// Elapsed is the run's execution time as the daemon reports it.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Bytes counts the bytes read for the POST response and the
	// progress stream.
	Bytes int64  `json:"bytes"`
	State string `json:"state,omitempty"`
	Err   string `json:"error,omitempty"` // refused, failed or wrong

	// Traced pass only: the status GET after the terminal line.
	StatusStart time.Duration `json:"status_start_ns,omitempty"`
	StatusEnd   time.Duration `json:"status_end_ns,omitempty"`
	Status      *runStatus    `json:"-"`
}

// owner is the node that executed the run: cluster run IDs carry their
// owner's name as a prefix ("n2-run-..."); a single daemon's do not.
func (r *runRecord) owner() string {
	if pre, _, ok := strings.Cut(r.ID, "-run-"); ok {
		return pre
	}
	return r.Node
}

// Latency is the client-observed time from the POST to the terminal
// progress line.
func (r *runRecord) Latency() time.Duration { return r.Finish - r.Start }

func terminal(state string) bool { return state != "queued" && state != "running" }

// checkStatus verifies a fetched terminal status against the generated
// program: only a done run that executed every iteration is correct.
func checkStatus(st *runStatus, expect int64) string {
	switch {
	case st.State != "done":
		return fmt.Sprintf("run %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil:
		return fmt.Sprintf("run %s is done without a result", st.ID)
	case st.Result.Stats.Iterations != expect:
		return fmt.Sprintf("run %s executed %d iterations, want %d", st.ID, st.Result.Stats.Iterations, expect)
	}
	return ""
}

// client drives one closed loop: submit, follow the progress stream to
// the terminal line, and (traced) fetch the status, then submit again.
type client struct {
	id     int
	hc     *http.Client
	t0     time.Time
	traced bool
}

func (c *client) since() time.Duration { return time.Since(c.t0) }

func (c *client) do(ctx context.Context, n *node, j job) *runRecord {
	rec := &runRecord{Client: c.id, Node: n.Name, Expect: j.Iterations, Start: c.since()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url("/v1/runs"), bytes.NewReader(j.body()))
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.Err = "submit: " + err.Error()
		return rec
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Submit = c.since() - rec.Start
	rec.Bytes += int64(len(b))
	if err != nil || resp.StatusCode != http.StatusCreated {
		rec.Err = fmt.Sprintf("submit refused: %s %s %v", resp.Status, bytes.TrimSpace(b), err)
		return rec
	}
	var p runner.Progress
	if err := json.Unmarshal(b, &p); err != nil || p.ID == "" {
		rec.Err = fmt.Sprintf("submit response %q: %v", b, err)
		return rec
	}
	rec.ID = p.ID

	if err := c.follow(ctx, n, rec); err != nil {
		rec.Err = err.Error()
		return rec
	}
	if !c.traced {
		return rec
	}
	rec.StatusStart = c.since()
	var st runStatus
	err = getJSON(ctx, c.hc, n.url("/v1/runs/"+rec.ID), &st)
	rec.StatusEnd = c.since()
	if err != nil {
		rec.Err = "status: " + err.Error()
		return rec
	}
	rec.Status = &st
	rec.Err = checkStatus(&st, rec.Expect)
	return rec
}

// follow reads the run's progress stream up to its terminal line and
// checks the line's state and iteration count.
func (c *client) follow(ctx context.Context, n *node, rec *runRecord) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url("/v1/runs/"+rec.ID+"/progress"), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("progress: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("progress: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		rec.Bytes += int64(len(sc.Bytes()) + 1)
		var p runner.Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("progress line %q: %w", sc.Bytes(), err)
		}
		if !terminal(p.State) {
			continue
		}
		rec.Finish = c.since()
		rec.State, rec.Elapsed = p.State, p.Elapsed
		// Drain the end of the stream so the connection is reused.
		io.Copy(io.Discard, resp.Body)
		switch {
		case p.State != "done":
			return fmt.Errorf("run %s ended %s: %s", p.ID, p.State, p.Error)
		case p.Iterations != rec.Expect:
			return fmt.Errorf("run %s reported %d iterations, want %d", p.ID, p.Iterations, rec.Expect)
		}
		return nil
	}
	return fmt.Errorf("progress stream of %s ended without a terminal line (%v)", rec.ID, sc.Err())
}

// roundResult is one fresh deployment driven through a warm-up and a
// measured window.
type roundResult struct {
	Records []*runRecord
	// Win and End bound the measured window (offsets from the pass
	// start); runs submitted before Win warm the deployment up.
	Win, End time.Duration
	// Ready, WinProc and EndProc are daemon /proc samples right after
	// set-up, at the window start and at its end.
	Ready, WinProc, EndProc procSample
	WinHost, EndHost        hostCPU
	JournalReady            int64
	JournalEnd              int64
	Journals                []string // the nodes' journal files, left on disk
	// Began is when the load started (an offset from the pass start);
	// Check and Stop are how long the output check and the shutdown
	// took after the load.
	Began, Check, Stop time.Duration
}

// measured returns the records of runs submitted inside the window.
func (rd *roundResult) measured() []*runRecord {
	var out []*runRecord
	for _, r := range rd.Records {
		if r.Start >= rd.Win && r.Start < rd.End {
			out = append(out, r)
		}
	}
	return out
}

// completedIn counts runs whose terminal line arrived inside the window.
func (rd *roundResult) completedIn() int {
	n := 0
	for _, r := range rd.Records {
		if r.Err == "" && r.Finish >= rd.Win && r.Finish <= rd.End {
			n++
		}
	}
	return n
}

// passResult is one load pass: its rounds, each on a fresh deployment,
// and every set-up it timed.
type passResult struct {
	Rounds []*roundResult
	Setups []time.Duration
}

// records returns every run of the pass, warm-up runs included.
func (p *passResult) records() []*runRecord {
	var out []*runRecord
	for _, rd := range p.Rounds {
		out = append(out, rd.Records...)
	}
	return out
}

// measured returns the runs submitted inside any round's window.
func (p *passResult) measured() []*runRecord {
	var out []*runRecord
	for _, rd := range p.Rounds {
		out = append(out, rd.measured()...)
	}
	return out
}

// failures counts runs that were refused, failed or wrong.
func (p *passResult) failures() int {
	n := 0
	for _, r := range p.records() {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// window sums the rounds' measured windows, the runs completed in them
// and the daemons' CPU time over them.
func (p *passResult) window() (d time.Duration, completed int, cpu time.Duration) {
	for _, rd := range p.Rounds {
		d += rd.End - rd.Win
		completed += rd.completedIn()
		cpu += rd.EndProc.CPU - rd.WinProc.CPU
	}
	return d, completed, cpu
}

// steal is the hypervisor's share of host CPU time over the windows.
func (p *passResult) steal() float64 {
	var a, b hostCPU
	for _, rd := range p.Rounds {
		a.Total += rd.WinHost.Total
		a.Steal += rd.WinHost.Steal
		b.Total += rd.EndHost.Total
		b.Steal += rd.EndHost.Steal
	}
	return stealShare(a, b)
}

// journals lists every journal file the pass's deployments wrote.
func (p *passResult) journals() []string {
	var out []string
	for _, rd := range p.Rounds {
		out = append(out, rd.Journals...)
	}
	return out
}

// passConfig configures one load pass.
type passConfig struct {
	Workload workload
	Seed     int64
	Bin      string // loopschedd binary
	Dir      string // daemon state directory
	// Measure is the pass's measured time. A count-based workload runs
	// rounds until their windows add up to it; a time-based one runs a
	// single round with a Warm warm-up and a Measure window.
	Warm    time.Duration
	Measure time.Duration
	Traced  bool
	// Setups is how many set-ups the pass times at least. Each round
	// times one; extra deployments are brought to ready and shut down
	// at once to make up the rest.
	Setups int
}

// runPass runs rounds of fresh deployments, each driven by the
// workload's closed-loop clients with every run's output checked, then
// times any extra set-ups.
func runPass(ctx context.Context, cfg passConfig) (*passResult, error) {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
	}}
	defer hc.CloseIdleConnections()
	// The load needs at most two goroutines busy at once; one core keeps
	// the generator from spinning idle threads next to the daemons.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := cfg.Workload
	// The clients' program streams run on across rounds, so every round
	// serves new programs of the same seed.
	rngs := make([]*rand.Rand, w.Clients)
	for ci := range rngs {
		rngs[ci] = clientRNG(cfg.Seed, ci)
	}
	res := &passResult{}
	t0 := time.Now()
	var measured time.Duration
	for i := 0; ; i++ {
		d, took, err := setUp(ctx, hc, cfg, filepath.Join(cfg.Dir, fmt.Sprintf("round%d", i)))
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, took)
		rd, err := drive(ctx, hc, d, cfg, t0, rngs)
		stopStart := time.Now()
		// Idle keep-alive connections would hold the daemons' shutdown
		// in its connection-polling loop; close them first.
		hc.CloseIdleConnections()
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		rd.Stop = time.Since(stopStart)
		res.Rounds = append(res.Rounds, rd)
		measured += rd.End - rd.Win
		if w.RoundRuns == 0 || measured >= cfg.Measure {
			break
		}
	}
	for i := len(res.Setups); i < cfg.Setups; i++ {
		d, took, err := setUp(ctx, hc, cfg, filepath.Join(cfg.Dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, took)
		hc.CloseIdleConnections()
		err = d.stop()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp launches the workload's deployment with state under dir and
// waits until it is ready, returning how long that took. The ports are
// reserved before launch but released for the daemons to bind, so a
// daemon can lose its port to another process; such an attempt is
// discarded and the deployment relaunched on fresh ports.
func setUp(ctx context.Context, hc *http.Client, cfg passConfig, dir string) (*deployment, time.Duration, error) {
	for attempt := 1; ; attempt++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		d, err := launch(cfg.Bin, dir, cfg.Workload)
		if err != nil {
			return nil, 0, err
		}
		readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = d.waitReady(readyCtx, hc)
		cancel()
		took := time.Since(start)
		if err == nil {
			return d, took, nil
		}
		d.stop()
		if !errors.Is(err, errExited) || attempt == 3 {
			return nil, 0, err
		}
	}
}

// drive runs one round against a ready deployment: the load, then the
// output check. Record times are offsets from t0, the pass start.
func drive(ctx context.Context, hc *http.Client, d *deployment, cfg passConfig, t0 time.Time, rngs []*rand.Rand) (*roundResult, error) {
	rd := &roundResult{Began: time.Since(t0)}
	for _, n := range d.Nodes {
		if n.Journal != "" {
			rd.Journals = append(rd.Journals, n.Journal)
		}
	}
	var err error
	if rd.Ready, err = d.sample(); err != nil {
		return nil, err
	}
	rd.JournalReady = d.journalBytes()
	if cfg.Workload.RoundRuns > 0 {
		err = driveCounted(ctx, hc, d, cfg, t0, rngs[0], rd)
	} else {
		err = driveTimed(ctx, hc, d, cfg, t0, rngs, rd)
	}
	rd.JournalEnd = d.journalBytes()
	if err != nil {
		return nil, err
	}
	if !cfg.Traced {
		checkStart := time.Now()
		if err := fetchAll(ctx, hc, d, rd.Records); err != nil {
			return nil, err
		}
		rd.Check = time.Since(checkStart)
	}
	return rd, nil
}

// driveCounted is a count-based round: one client submits the
// workload's WarmRuns programs, then its RoundRuns measured ones, so
// every round serves the same amount of work whatever the host's speed.
func driveCounted(ctx context.Context, hc *http.Client, d *deployment, cfg passConfig, t0 time.Time, rng *rand.Rand, rd *roundResult) error {
	w := cfg.Workload
	c := &client{hc: hc, t0: t0, traced: cfg.Traced}
	runs := func(k int) error {
		for range k {
			if err := ctx.Err(); err != nil {
				return err
			}
			rd.Records = append(rd.Records, c.do(ctx, d.Nodes[0], w.Gen(rng)))
		}
		return nil
	}
	if err := runs(w.WarmRuns); err != nil {
		return err
	}
	var err error
	if rd.WinProc, err = d.sample(); err != nil {
		return err
	}
	if rd.WinHost, err = readHostCPU(); err != nil {
		return err
	}
	rd.Win = c.since()
	if err := runs(w.RoundRuns); err != nil {
		return err
	}
	rd.End = c.since()
	if rd.EndProc, err = d.sample(); err != nil {
		return err
	}
	rd.EndHost, err = readHostCPU()
	return err
}

// driveTimed is a time-based round: the workload's clients run closed
// loops through a Warm warm-up and a Measure window.
func driveTimed(ctx context.Context, hc *http.Client, d *deployment, cfg passConfig, t0 time.Time, rngs []*rand.Rand, rd *roundResult) error {
	start := time.Since(t0)
	rd.Win, rd.End = start+cfg.Warm, start+cfg.Warm+cfg.Measure
	loadCtx, cancel := context.WithTimeout(ctx, cfg.Warm+cfg.Measure+60*time.Second)
	defer cancel()

	w := cfg.Workload
	perClient := make([][]*runRecord, w.Clients)
	var wg sync.WaitGroup
	for ci := 0; ci < w.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &client{id: ci, hc: hc, t0: t0, traced: cfg.Traced}
			for k := 0; c.since() < rd.End && loadCtx.Err() == nil; k++ {
				// Clients submit round-robin across the nodes, each
				// starting at its own node.
				n := d.Nodes[(ci+k)%len(d.Nodes)]
				perClient[ci] = append(perClient[ci], c.do(loadCtx, n, w.Gen(rngs[ci])))
			}
		}(ci)
	}
	sleepUntil(loadCtx, t0.Add(rd.Win))
	var err error
	rd.WinProc, err = d.sample()
	if err == nil {
		rd.WinHost, err = readHostCPU()
	}
	sleepUntil(loadCtx, t0.Add(rd.End))
	if err == nil {
		rd.EndProc, err = d.sample()
	}
	if err == nil {
		rd.EndHost, err = readHostCPU()
	}
	wg.Wait()
	for _, recs := range perClient {
		rd.Records = append(rd.Records, recs...)
	}
	if err != nil {
		return err
	}
	if loadCtx.Err() != nil {
		return fmt.Errorf("load did not finish: %w", loadCtx.Err())
	}
	return nil
}

// sleepUntil waits for t or for ctx to end, whichever comes first.
func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// fetchAll is the untraced pass's output check, made after the window
// so it adds no request to the timed loop: every run the clients saw
// finish is fetched from the node it was submitted to, and a run that
// is not done with every iteration executed is marked wrong.
func fetchAll(ctx context.Context, hc *http.Client, d *deployment, recs []*runRecord) error {
	byName := map[string]*node{}
	for _, n := range d.Nodes {
		byName[n.Name] = n
	}
	todo := make(chan *runRecord)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range todo {
				var st runStatus
				if err := getJSON(ctx, hc, byName[r.Node].url("/v1/runs/"+r.ID), &st); err != nil {
					r.Err = "status: " + err.Error()
					continue
				}
				r.Err = checkStatus(&st, r.Expect)
			}
		}()
	}
	for _, r := range recs {
		if r.Err == "" {
			todo <- r
		}
	}
	close(todo)
	wg.Wait()
	return ctx.Err()
}
