package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/runner"
)

// Wire types.

type submitRequest struct {
	// Program is mini-language source (see internal/lang).
	Program string     `json:"program"`
	Label   string     `json:"label,omitempty"`
	Timeout string     `json:"timeout,omitempty"` // Go duration string
	Options runOptions `json:"options"`
	// ID is intra-cluster only: a failover restore re-creates the run on
	// a survivor under its original cluster-wide ID. External
	// submissions must not set it (400) — IDs are owner-assigned.
	ID string `json:"id,omitempty"`
}

type runOptions struct {
	Procs         int    `json:"procs,omitempty"`
	Scheme        string `json:"scheme,omitempty"`
	Engine        string `json:"engine,omitempty"`
	Pool          string `json:"pool,omitempty"`
	AccessCost    int64  `json:"access_cost,omitempty"`
	SpinCost      int64  `json:"spin_cost,omitempty"`
	Combining     bool   `json:"combining,omitempty"`
	RemotePenalty int64  `json:"remote_penalty,omitempty"`
	DispatchCost  int64  `json:"dispatch_cost,omitempty"`
	Verify        bool   `json:"verify,omitempty"`
	Coalesce      bool   `json:"coalesce,omitempty"`
	Failure       string `json:"failure,omitempty"`
	RetryAttempts int    `json:"retry_attempts,omitempty"`
	RetryBackoff  int64  `json:"retry_backoff,omitempty"`
	// Checkpointable enables POST /v1/runs/{id}/checkpoint for the run;
	// CheckpointAfter pauses it on its own after that many chunk claims.
	// Resume restores a checkpoint captured from an identical program
	// (returned in a checkpointed run's status).
	Checkpointable  bool              `json:"checkpointable,omitempty"`
	CheckpointAfter int64             `json:"checkpoint_after,omitempty"`
	Resume          *repro.Checkpoint `json:"resume,omitempty"`
	// CheckpointEvery runs the program as a chain of legs, parking a
	// durable snapshot every that-many chunk claims — the failover
	// restore points. A clustered daemon started with -checkpoint-every
	// applies that default to submissions that leave it zero.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// ClaimBatch leases up to that many chunks per claim (cursor schemes
	// only); SWShards splits the pool control word; CombineClaims marks
	// the claim hot spots software-combinable on the virtual engine.
	ClaimBatch    int  `json:"claim_batch,omitempty"`
	SWShards      int  `json:"sw_shards,omitempty"`
	CombineClaims bool `json:"combine_claims,omitempty"`
	// BudgetIterations caps the run's executed iterations;
	// BudgetTime caps its machine time. A run that exhausts either
	// finishes with a budget-exceeded error — checkpointable runs park a
	// resumable snapshot in their status.
	BudgetIterations int64 `json:"budget_iterations,omitempty"`
	BudgetTime       int64 `json:"budget_time,omitempty"`
}

func (o runOptions) toOptions() repro.Options {
	return repro.Options{
		Procs:            o.Procs,
		Scheme:           o.Scheme,
		Engine:           repro.EngineKind(o.Engine),
		Pool:             o.Pool,
		AccessCost:       o.AccessCost,
		SpinCost:         o.SpinCost,
		Combining:        o.Combining,
		RemotePenalty:    o.RemotePenalty,
		DispatchCost:     o.DispatchCost,
		Verify:           o.Verify,
		Failure:          o.Failure,
		RetryAttempts:    o.RetryAttempts,
		RetryBackoff:     o.RetryBackoff,
		Checkpointable:   o.Checkpointable,
		CheckpointAfter:  o.CheckpointAfter,
		Resume:           o.Resume,
		ClaimBatch:       o.ClaimBatch,
		SWShards:         o.SWShards,
		CombineClaims:    o.CombineClaims,
		BudgetIterations: o.BudgetIterations,
		BudgetTime:       o.BudgetTime,
	}
}

// runStatus is a progress snapshot plus, for a finished run, the result
// — or, for a checkpointed run, the resumable checkpoint.
type runStatus struct {
	runner.Progress
	Result     *runResult        `json:"result,omitempty"`
	Checkpoint *repro.Checkpoint `json:"checkpoint,omitempty"`
}

type runResult struct {
	Makespan    int64         `json:"makespan"`
	Utilization float64       `json:"utilization"`
	Scheme      string        `json:"scheme"`
	Procs       int           `json:"procs"`
	Busy        []int64       `json:"busy"`
	Stats       core.Snapshot `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Valid lists acceptable values when the error is a typed option
	// error (unknown engine/pool, bad scheme).
	Valid []string `json:"valid,omitempty"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	tenant, err := s.resolveTenant(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	internal := s.isInternal(r)
	if req.ID != "" && !internal {
		writeError(w, http.StatusBadRequest, errors.New("run IDs are server-assigned"))
		return
	}
	sub, err := s.buildSubmission(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// External submissions on a clustered node go to the least-loaded
	// live node; this node runs them itself when it is that node, when
	// no peer is placeable, or when the forward fails (a partitioned
	// node degrades to serving locally rather than erroring). Internal
	// submissions are already placed — forwarding them again could
	// ping-pong.
	if !internal && s.cluster != nil && s.cluster.trySubmitRemote(w, req, tenant) {
		return
	}
	sub.ID = req.ID
	sub.Tenant = tenant
	commit := s.attachSnapshotJournal(&sub)
	run, err := s.rn.Submit(sub)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			// The backlog drains continuously; a short pause is the right
			// client response to load shedding. The advisory delay is
			// jittered over 1..3s so a burst of shed clients does not
			// come back as one synchronized wave (the exact value is not
			// part of the API contract — only that the header is present
			// and positive).
			w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(3)))
		}
		writeError(w, status, err)
		return
	}
	s.recordSubmit(run.ID(), journalSubmit{
		Program: req.Program,
		Label:   req.Label,
		Tenant:  tenant,
		Timeout: req.Timeout,
		Options: req.Options,
	})
	commit(run.ID())
	s.watchJournal(run)
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, runStatus{Progress: run.Progress()})
}

// submitPlaced re-creates a placed run locally under its original ID —
// the failover path's local restore.
func (s *server) submitPlaced(req submitRequest, tenant string) error {
	sub, err := s.buildSubmission(req)
	if err != nil {
		return err
	}
	sub.ID = req.ID
	sub.Tenant = tenant
	commit := s.attachSnapshotJournal(&sub)
	run, err := s.rn.Submit(sub)
	if err != nil {
		return err
	}
	s.recordSubmit(run.ID(), journalSubmit{
		Program: req.Program,
		Label:   req.Label,
		Tenant:  tenant,
		Timeout: req.Timeout,
		Options: req.Options,
	})
	commit(run.ID())
	s.watchJournal(run)
	return nil
}

// attachSnapshotJournal wires a CheckpointEvery submission's OnSnapshot
// hook to journal each restore point. The run ID does not exist until
// Submit returns, but the first snapshot can fire as soon as the run
// dispatches — the hook blocks until commit supplies the ID.
func (s *server) attachSnapshotJournal(sub *runner.Submission) (commit func(id string)) {
	if sub.CheckpointEvery <= 0 {
		return func(string) {}
	}
	ready := make(chan struct{})
	id := ""
	sub.OnSnapshot = func(ck *repro.Checkpoint) {
		<-ready
		data, err := json.Marshal(ck)
		if err != nil {
			return
		}
		s.recordSnapshot(id, data)
	}
	return func(runID string) {
		id = runID
		close(ready)
	}
}

// buildSubmission turns a wire submission into a runner submission; the
// boot-time journal replay reuses it so replayed runs go through exactly
// the fresh-request path. The tenant is not part of the wire body — the
// submit path resolves it from the request's credentials, the replay
// path restores it from the journal record.
func (s *server) buildSubmission(req submitRequest) (runner.Submission, error) {
	if req.Program == "" {
		return runner.Submission{}, errors.New("missing program")
	}
	nest, err := lang.Parse(req.Program)
	if err != nil {
		return runner.Submission{}, fmt.Errorf("parse program: %w", err)
	}
	var copts []repro.CompileOption
	if req.Options.Coalesce {
		copts = append(copts, repro.WithCoalescing())
	}
	prog, err := repro.Compile(nest, copts...)
	if err != nil {
		return runner.Submission{}, fmt.Errorf("compile program: %w", err)
	}
	timeout := s.cfg.DefaultTimeout
	if req.Timeout != "" {
		if timeout, err = time.ParseDuration(req.Timeout); err != nil {
			return runner.Submission{}, fmt.Errorf("bad timeout: %w", err)
		}
	}
	every := req.Options.CheckpointEvery
	if every < 0 {
		return runner.Submission{}, errors.New("checkpoint_every must be non-negative")
	}
	if every == 0 && s.cfg.Cluster.enabled() {
		// Clustered nodes default every run to periodic snapshots: without
		// them, failover can only restart a lost run from scratch.
		every = s.cfg.Cluster.CheckpointEvery
	}
	return runner.Submission{
		Program:         prog,
		Options:         req.Options.toOptions(),
		Timeout:         timeout,
		Label:           req.Label,
		CheckpointEvery: every,
	}, nil
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.rn.Runs()
	out := make([]runner.Progress, len(runs))
	for i, run := range runs {
		out[i] = run.Progress()
	}
	writeJSON(w, out)
}

// maxStatusWait caps a status long-poll (GET /v1/runs/{id}?wait=). It
// sits below the cluster RPC client's default 2s per-attempt deadline,
// so a proxied long-poll always answers within one attempt.
const maxStatusWait = time.Second

// errBadWait reports a malformed, zero or negative ?wait= value.
var errBadWait = errors.New("bad wait")

// statusWait parses the optional ?wait= long-poll duration of
// GET /v1/runs/{id}: absent is 0 (answer at once); a value over
// maxStatusWait is clamped to it.
func statusWait(r *http.Request) (time.Duration, error) {
	q := r.URL.Query()
	if !q.Has("wait") {
		return 0, nil
	}
	d, err := time.ParseDuration(q.Get("wait"))
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("%w %q: want a positive duration such as \"200ms\" (capped at %v)",
			errBadWait, q.Get("wait"), maxStatusWait)
	}
	return min(d, maxStatusWait), nil
}

// handleGet answers a run's status. With ?wait= it is a long-poll: the
// answer waits until the run is terminal, the wait elapses or the
// server starts draining, whichever comes first.
func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	wait, err := statusWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run, ok := s.rn.Get(r.PathValue("id"))
	if !ok {
		// Internal requests never re-proxy: a forwarding loop between two
		// nodes that both miss would otherwise bounce until a deadline.
		if s.cluster != nil && !s.isInternal(r) &&
			s.cluster.proxyGet(w, r, r.PathValue("id"), wait) {
			return
		}
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	if wait > 0 && !s.awaitRun(r.Context(), run, wait) {
		return // the client went away: there is no one to answer
	}
	st := runStatus{Progress: run.Progress()}
	if res, err := run.Result(); err == nil {
		st.Result = &runResult{
			Makespan:    res.Makespan,
			Utilization: res.Utilization,
			Scheme:      res.SchemeName,
			Procs:       res.Procs,
			Busy:        res.Busy,
			Stats:       res.Stats,
		}
	}
	st.Checkpoint = run.Checkpoint()
	writeJSON(w, st)
}

// awaitRun holds a status long-poll until run is terminal, wait
// elapses or the server starts draining. It reports false when ctx —
// the client's request — ends first.
func (s *server) awaitRun(ctx context.Context, run *runner.Run, wait time.Duration) bool {
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-run.Done():
	case <-t.C:
	case <-s.draining.Done():
	case <-ctx.Done():
		return false
	}
	return true
}

// handleProgress streams NDJSON progress snapshots until the run is
// terminal or the client goes away.
func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	run, ok := s.rn.Get(r.PathValue("id"))
	if !ok {
		if s.cluster != nil && !s.isInternal(r) &&
			s.cluster.proxyProgress(w, r, r.PathValue("id")) {
			return
		}
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for p := range run.Watch(r.Context()) {
		if enc.Encode(p) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// statsResponse is the /stats body: the run-manager census plus
// per-tenant rows and service-level figures.
type statsResponse struct {
	runner.Stats
	Tenants  []runner.TenantStats `json:"tenants,omitempty"`
	UptimeNS int64                `json:"uptime_ns"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{
		Stats:    s.rn.Stats(),
		Tenants:  s.rn.TenantStats(),
		UptimeNS: time.Since(s.started).Nanoseconds(),
	})
}

// handleMetrics renders the service registry in the Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	s.reg.WriteProm(&sb)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, sb.String())
}

// handleCheckpoint asks a running checkpointable run to pause and
// capture a snapshot. The pause completes asynchronously: poll the run
// (or its progress stream) for state "checkpointed", then read the
// checkpoint from GET /v1/runs/{id}.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	run, ok := s.rn.Get(r.PathValue("id"))
	if !ok {
		if s.cluster != nil && !s.isInternal(r) &&
			s.cluster.proxyPost(w, r, r.PathValue("id"), "checkpoint") {
			return
		}
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	if !run.RequestCheckpoint() {
		writeError(w, http.StatusConflict,
			errors.New("run is not checkpointable (submit with options.checkpointable) or not running"))
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, runStatus{Progress: run.Progress()})
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.rn.Get(r.PathValue("id"))
	if !ok {
		if s.cluster != nil && !s.isInternal(r) &&
			s.cluster.proxyPost(w, r, r.PathValue("id"), "cancel") {
			return
		}
		writeError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	run.Cancel()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, runStatus{Progress: run.Progress()})
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, runner.ErrQueueFull),
		errors.Is(err, runner.ErrTenantQueueFull),
		errors.Is(err, runner.ErrTenantInflight):
		return http.StatusTooManyRequests
	case errors.Is(err, runner.ErrDuplicateID):
		// Only cluster-internal submissions can carry an ID, and the
		// placer mints unique ones — a duplicate is a retried forward
		// whose earlier attempt landed, so 409 tells the placer the run
		// already exists rather than 400 "bad request".
		return http.StatusConflict
	case errors.Is(err, runner.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	switch {
	case errors.Is(err, repro.ErrBadScheme):
		resp.Valid = repro.KnownSchemes()
	case errors.Is(err, repro.ErrUnknownEngine):
		resp.Valid = repro.KnownEngines()
	case errors.Is(err, repro.ErrUnknownPool):
		resp.Valid = repro.KnownPools()
	case errors.Is(err, repro.ErrBadFailure):
		resp.Valid = repro.KnownFailurePolicies()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
