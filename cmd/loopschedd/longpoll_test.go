package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/lang"
	"repro/runner"
)

// gatedRun submits a small program straight to s's runner whose
// execution blocks until release is called: the run is "running" from
// dispatch on, and done moments after release. Status long-polls are
// tested against it without sleeping on the run's own timing.
func gatedRun(t *testing.T, s *server) (run *runner.Run, release func()) {
	t.Helper()
	nest, err := lang.Parse("doall I = 1..64 { work 10 }")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := repro.Compile(nest)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	run, err = s.rn.Submit(runner.Submission{
		Program: prog,
		Options: repro.Options{Procs: 2, Observe: func(repro.Live) { <-gate }},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-run.Started()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the server's cleanup drains it
	return run, release
}

// longPoll is one GET /v1/runs/{id}?wait= answer and how long it took.
type longPoll struct {
	status  int
	state   string
	elapsed time.Duration
	err     error
}

func startLongPoll(url string) <-chan longPoll {
	out := make(chan longPoll, 1)
	go func() {
		began := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			out <- longPoll{err: err}
			return
		}
		defer resp.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		out <- longPoll{status: resp.StatusCode, state: st.State, elapsed: time.Since(began), err: err}
	}()
	return out
}

// signalLongPolls serves s on a second listener that signals inPoll as
// each long-poll request reaches the handler.
func signalLongPolls(t *testing.T, s *server) (url string, inPoll <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			ch <- struct{}{}
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, ch
}

// TestStatusWaitRejectsBadValues: ?wait= is untrusted input — a
// malformed, zero or negative value is a 400 naming the problem, and a
// GET without it answers at once as before.
func TestStatusWaitRejectsBadValues(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	run, _ := gatedRun(t, s)
	for _, q := range []string{"", "soon", "0", "0s", "-1s", "10"} {
		resp, payload := getStatus(t, ts.URL+"/v1/runs/"+run.ID()+"?wait="+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%q: status %d, want 400", q, resp.StatusCode)
			continue
		}
		if msg, _ := payload["error"].(string); !strings.HasPrefix(msg, errBadWait.Error()) {
			t.Errorf("wait=%q: error %q, want it to start with %q", q, msg, errBadWait)
		}
	}
	// A bad wait is rejected before the run lookup.
	if resp, _ := getStatus(t, ts.URL+"/v1/runs/no-such-run?wait=-1s"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait on an unknown run: status %d, want 400", resp.StatusCode)
	}
	began := time.Now()
	resp, payload := getStatus(t, ts.URL+"/v1/runs/"+run.ID())
	if resp.StatusCode != http.StatusOK || payload["state"] != "running" {
		t.Fatalf("plain GET: status %d, payload %v", resp.StatusCode, payload)
	}
	if d := time.Since(began); d > maxStatusWait/2 {
		t.Errorf("plain GET on a running run took %v: it must not wait", d)
	}
}

func getStatus(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp, payload
}

// TestStatusLongPollWakesOnFinish: a long-poll open on a running run
// answers as soon as the run ends, not when its wait elapses.
func TestStatusLongPollWakesOnFinish(t *testing.T) {
	s, _ := newTestServer(t, serverConfig{})
	run, release := gatedRun(t, s)
	base, inPoll := signalLongPolls(t, s)
	poll := startLongPoll(base + "/v1/runs/" + run.ID() + "?wait=1s")
	<-inPoll
	released := time.Now()
	release()
	got := <-poll
	lag := time.Since(released)
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("long-poll: status %d, err %v", got.status, got.err)
	}
	if got.state != "done" {
		t.Fatalf("long-poll answered state %q, want done", got.state)
	}
	if lag > maxStatusWait/2 {
		t.Errorf("long-poll answered %v after the run was released: it waited out its wait instead of waking", lag)
	}
}

// TestStatusLongPollClampsWait: a wait above maxStatusWait is clamped
// to it, so a long-poll on a run that does not finish answers after the
// cap with the live state.
func TestStatusLongPollClampsWait(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	run, _ := gatedRun(t, s)
	got := <-startLongPoll(ts.URL + "/v1/runs/" + run.ID() + "?wait=1h")
	if got.err != nil || got.status != http.StatusOK || got.state != "running" {
		t.Fatalf("long-poll: status %d, state %q, err %v", got.status, got.state, got.err)
	}
	if got.elapsed < maxStatusWait-50*time.Millisecond || got.elapsed > 5*maxStatusWait {
		t.Errorf("wait=1h answered after %v, want about the %v cap", got.elapsed, maxStatusWait)
	}
}

// TestStatusLongPollClientGone: a long-poll whose client disconnects
// returns at once without writing an answer.
func TestStatusLongPollClientGone(t *testing.T) {
	s, _ := newTestServer(t, serverConfig{})
	run, _ := gatedRun(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequestWithContext(ctx, http.MethodGet, "/v1/runs/"+run.ID()+"?wait=1s", nil)
	rec := httptest.NewRecorder()
	returned := make(chan time.Time, 1)
	go func() {
		s.ServeHTTP(rec, req)
		returned <- time.Now()
	}()
	cancelled := time.Now()
	cancel()
	at := <-returned
	if lag := at.Sub(cancelled); lag > maxStatusWait/2 {
		t.Errorf("handler returned %v after the client left: it waited out its wait", lag)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("handler answered a departed client: %q", rec.Body.String())
	}
}

// TestStatusLongPollEndsOnDrain: a draining server answers open and new
// long-polls at once with the live state, so SIGTERM is never held up
// by a client's wait.
func TestStatusLongPollEndsOnDrain(t *testing.T) {
	s, _ := newTestServer(t, serverConfig{})
	run, release := gatedRun(t, s)
	base, inPoll := signalLongPolls(t, s)
	url := base + "/v1/runs/" + run.ID() + "?wait=1s"
	poll := startLongPoll(url)
	<-inPoll

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.close(ctx) // blocks in the drain until the gated run is released
	}()
	open := <-poll
	late := <-startLongPoll(url) // opened after the drain began
	<-inPoll
	for _, got := range []longPoll{open, late} {
		if got.err != nil || got.status != http.StatusOK || got.state != "running" {
			t.Fatalf("long-poll during drain: status %d, state %q, err %v", got.status, got.state, got.err)
		}
		if got.elapsed > maxStatusWait/2 {
			t.Errorf("long-poll during drain answered after %v: the drain waited on it", got.elapsed)
		}
	}
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("close never returned")
	}
}

// endlessProgram runs until cancelled.
const endlessProgram = `{"program": "doall I = 1..1099511627776 { work 50 }", "options": {"procs": 2, "scheme": "ss"}}`

// placeEndless submits the endless program via node via of a cluster
// whose nodes are all idle, so it is placed on n1 (ties break by name),
// and returns the run's ID and its handle on the owner.
func placeEndless(t *testing.T, tc *testCluster, via int) (string, *runner.Run) {
	t.Helper()
	resp, payload := postJSON(t, tc.url(via)+"/v1/runs", endlessProgram)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit via n%d: status %d, payload %v", via+1, resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	run, ok := tc.srvs[0].rn.Get(id)
	if !strings.HasPrefix(id, "n1-") || !ok {
		t.Fatalf("run placed as %q, want it on n1", id)
	}
	return id, run
}

// progressLine is one NDJSON line of a progress stream and when it
// arrived.
type progressLine struct {
	p  runner.Progress
	at time.Time
}

// followProgress reads node i's progress stream for id in the
// background; the channel yields every line once the stream ends. It
// returns after the first line has arrived.
func followProgress(t *testing.T, tc *testCluster, i int, id string) <-chan []progressLine {
	t.Helper()
	resp, err := http.Get(tc.url(i) + "/v1/runs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("progress via n%d: status %d", i+1, resp.StatusCode)
	}
	first := make(chan struct{})
	out := make(chan []progressLine, 1)
	go func() {
		defer resp.Body.Close()
		var lines []progressLine
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var l progressLine
			l.at = time.Now()
			if err := json.Unmarshal(sc.Bytes(), &l.p); err != nil {
				l.p.Error = "undecodable line: " + sc.Text()
			}
			lines = append(lines, l)
			if len(lines) == 1 {
				close(first)
			}
		}
		if len(lines) == 0 {
			close(first)
		}
		out <- lines
	}()
	<-first
	return out
}

// TestClusterProxiedProgressEndsWithRun: a proxied progress stream's
// terminal line leaves the owner with the run's end, not one sample
// period later — here the period is 30s, and the line must arrive
// within 2s.
func TestClusterProxiedProgressEndsWithRun(t *testing.T) {
	tc := startCluster(t, 3, t.TempDir(), nil, 0, func(cfg *serverConfig) {
		cfg.SampleInterval = 30 * time.Second
	})
	id, run := placeEndless(t, tc, 1)
	stream := followProgress(t, tc, 2, id) // n3 proxies: it neither owns nor placed the run
	run.Cancel()
	<-run.Done()
	ended := time.Now()
	lines := <-stream
	last := lines[len(lines)-1]
	if last.p.ID != id || last.p.State != "cancelled" {
		t.Fatalf("proxied stream ended on %+v, want %s cancelled", last.p, id)
	}
	if lag := last.at.Sub(ended); lag > 2*time.Second {
		t.Errorf("terminal line arrived %v after the run ended (sample period 30s)", lag)
	}
}

// TestClusterProxiedProgressSkipsMisses: status polls that miss while
// the owner is unreachable add no lines to a proxied stream — every
// line carries the run's ID and a state.
func TestClusterProxiedProgressSkipsMisses(t *testing.T) {
	tc := startCluster(t, 3, t.TempDir(), nil, 0)
	id, run := placeEndless(t, tc, 1)
	// The owner fails the proxy's next six long-poll attempts with 503:
	// the client's three attempts per poll make that two missed polls
	// (the scatter to the other nodes finds no run either), within the
	// stream's tolerance. The placer's own polls (a different wait) pass.
	proxyWait := "wait=" + tc.srvs[2].cluster.progressWait.String()
	var dropped atomic.Int32
	tc.intercept(0, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/runs/"+id &&
			r.URL.RawQuery == proxyWait && dropped.Add(1) <= 6 {
			http.Error(w, "injected: owner unreachable", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
	stream := followProgress(t, tc, 2, id)
	deadline := time.After(30 * time.Second)
	for dropped.Load() < 8 { // six dropped, then polls get through again
		select {
		case <-deadline:
			t.Fatalf("only %d long-polls reached the owner", dropped.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	run.Cancel()
	lines := <-stream
	for i, l := range lines {
		if l.p.ID != id || l.p.State == "" {
			t.Errorf("line %d of the proxied stream is %+v: want run %s with a state", i, l.p, id)
		}
	}
	if last := lines[len(lines)-1].p; last.State != "cancelled" {
		t.Errorf("proxied stream ended on state %q, want cancelled", last.State)
	}
}

// TestClusterPlacementPrunedAtRunEnd: the placer's watcher long-polls
// the owner, so a finished run's placement is journaled and pruned at
// once rather than up to a poll period later, and close does not wait
// out an open long-poll.
func TestClusterPlacementPrunedAtRunEnd(t *testing.T) {
	tc := startCluster(t, 2, t.TempDir(), nil, 0, func(cfg *serverConfig) {
		cfg.Cluster.ProbeInterval = time.Second // the placement poll period too
	})
	placer := tc.srvs[1]
	if w := placer.cluster.placementWait; w != maxStatusWait {
		t.Fatalf("placement long-poll wait %v, want %v", w, maxStatusWait)
	}
	placements := func() int {
		var info clusterInfo
		getJSON(t, tc.url(1)+"/v1/cluster", &info)
		return info.Placements
	}

	_, run := placeEndless(t, tc, 1)
	if n := placements(); n != 1 {
		t.Fatalf("placer tracks %d placement(s), want 1", n)
	}
	run.Cancel()
	<-run.Done()
	ended := time.Now()
	for placements() != 0 {
		if lag := time.Since(ended); lag > maxStatusWait/2 {
			t.Fatalf("placement still tracked %v after its run ended", lag)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A watcher blocked in a long-poll does not hold close up.
	_, run = placeEndless(t, tc, 1)
	defer run.Cancel()
	began := time.Now()
	placer.cluster.close()
	if d := time.Since(began); d > maxStatusWait/2 {
		t.Errorf("cluster close took %v with a placement long-poll open", d)
	}
}
