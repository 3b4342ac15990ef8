package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/fbp"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// The pipeline session plane: POST /v1/pipelines compiles an FBP graph once
// into a persistent session, and each later POST /v1/pipelines/{id} streams
// records through the already-compiled, already-warm pipeline. The expensive
// work — parsing, placement, ensemble emission, commlint verification,
// trace recording and JIT compilation — happens exactly once per session;
// every record after the first replays warm traces (the per-record response
// pins this with its trace_misses/jit_compiles summary, which a steady-state
// session reports as zero).
//
// Sessions do not pin machines. Between requests the session's complete
// architectural state is parked as a Machine.Snapshot and the machine
// returns to a per-geometry free list, so MaxSessions sessions coexist with
// far fewer live machines; the next advance restores the snapshot onto any
// free machine of the same geometry (the fingerprint covers configuration,
// not machine identity — the same property the QoS preemption plane relies
// on). Admission failures reuse the /v1/execute taxonomy: a grammar or
// component error is a 400, a graph the machine-level verifier rejects
// (deadlocking composition, geometry overflow) is a 422 carrying the finding
// report, and a full session table is 503 + Retry-After.

// maxAdvanceRecords bounds one advance request; longer streams split across
// requests (which is the intended shape — parking between requests is what
// keeps sessions from pinning machines).
const maxAdvanceRecords = 256

// PipelineRequest is the POST /v1/pipelines body.
type PipelineRequest struct {
	Source  string `json:"source"`             // FBP graph text
	Backend string `json:"backend"`            // backends.ByName key
	Mode    string `json:"mode,omitempty"`     // mpu (default) or baseline
	MaxMPUs int    `json:"max_mpus,omitempty"` // optional placement cap below the server's
}

// PipelineResponse is the create success body: the session id plus the
// placement the compiler chose.
type PipelineResponse struct {
	ID      string           `json:"id"`
	Backend string           `json:"backend"`
	Mode    string           `json:"mode"`
	MPUs    int              `json:"mpus"`
	Lanes   int              `json:"lanes"`
	Hops    int              `json:"hops"`
	Nodes   []fbp.PlacedNode `json:"nodes"`
}

// PipelineSet preloads one vector register on a named node before a record
// runs. RFH/VRF address within the node's MPU (streaming components read
// record registers at rfh 0, vrf 0).
type PipelineSet struct {
	Node   string   `json:"node"`
	RFH    uint8    `json:"rfh"`
	VRF    uint8    `json:"vrf"`
	Reg    int      `json:"reg"`
	Values []uint64 `json:"values"`
}

// PipelineRef names one vector register on a named node to read back after a
// record runs.
type PipelineRef struct {
	Node string `json:"node"`
	RFH  uint8  `json:"rfh"`
	VRF  uint8  `json:"vrf"`
	Reg  int    `json:"reg"`
}

// PipelineDump is one post-record register read.
type PipelineDump struct {
	Node   string   `json:"node"`
	RFH    uint8    `json:"rfh"`
	VRF    uint8    `json:"vrf"`
	Reg    int      `json:"reg"`
	Values []uint64 `json:"values"`
}

// PipelineRecord is one record streamed through the session: registers to
// write before the run and registers to read after it.
type PipelineRecord struct {
	Sets  []PipelineSet `json:"sets,omitempty"`
	Dumps []PipelineRef `json:"dumps,omitempty"`
}

// AdvanceRequest is the POST /v1/pipelines/{id} body.
type AdvanceRequest struct {
	Records []PipelineRecord `json:"records"`
	Stats   bool             `json:"stats,omitempty"` // include per-record machine.Stats
}

// RecordResult is one record's outputs.
type RecordResult struct {
	Dumps []PipelineDump  `json:"dumps,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// SessionSummary sums this request's per-record counters. TraceMisses and
// JITCompiles are the recompilation account: a steady-state session (every
// record after its first) reports both as zero — records ride entirely on
// traces recorded and JIT'd during record one, across parks, restores, and
// machine changes.
type SessionSummary struct {
	Records      int    `json:"records"`
	TotalRecords uint64 `json:"total_records"` // session lifetime, including this request
	Cycles       int64  `json:"cycles"`
	TraceHits    uint64 `json:"trace_hits"`
	TraceMisses  uint64 `json:"trace_misses"`
	JITCompiles  uint64 `json:"jit_compiles"`
	JITReplays   uint64 `json:"jit_replays"`
}

// AdvanceResponse is the advance success body.
type AdvanceResponse struct {
	ID      string         `json:"id"`
	Records []RecordResult `json:"records"`
	Summary SessionSummary `json:"summary"`
}

// SessionStatus is the GET /v1/pipelines/{id} body and the element of the
// GET /v1/pipelines listing.
type SessionStatus struct {
	ID            string           `json:"id"`
	Backend       string           `json:"backend"`
	Mode          string           `json:"mode"`
	MPUs          int              `json:"mpus"`
	Nodes         []fbp.PlacedNode `json:"nodes"`
	Records       uint64           `json:"records"`
	Parked        bool             `json:"parked"` // state held as a snapshot, no machine pinned
	Busy          bool             `json:"busy"`
	SnapshotBytes int              `json:"snapshot_bytes"`
	AgeSec        float64          `json:"age_sec"`
}

// session is one live pipeline: the compiled placement plus the parked
// architectural state between requests. busy/snap/records are guarded by the
// manager mutex; compiled/nodeMPU/spec are immutable after create.
type session struct {
	id       string
	key      string // machine geometry key (spec/mode/mpus)
	spec     *backends.Spec
	mode     machine.Mode
	compiled *fbp.Compiled
	nodeMPU  map[string]int
	created  time.Time

	busy    bool   // an advance request holds the session
	loaded  bool   // programs have been loaded at least once
	snap    []byte // parked state; nil before the first advance completes
	records uint64 // lifetime records streamed
}

// sessionManager owns the session table and the per-geometry free list of
// machines that parked sessions resume onto. The sessions map is written
// only by createSession, advanceSession, and closeSession (cmd/repolint
// rule 8); every other path reads it under the mutex.
type sessionManager struct {
	mu       sync.Mutex
	sessions map[string]*session
	idle     map[string][]*machine.Machine
	maxIdle  int
	nextID   uint64
}

func newSessionManager(maxIdle int) *sessionManager {
	return &sessionManager{idle: map[string][]*machine.Machine{}, maxIdle: maxIdle}
}

func sessionKey(spec *backends.Spec, mode machine.Mode, mpus int) string {
	return spec.Name + "/" + mode.String() + "/" + strconv.Itoa(mpus)
}

// sessionMachineConfig derives the machine configuration for a session's
// geometry the same way the pools derive theirs, so snapshot fingerprints
// agree across every machine the manager ever builds for that key.
func (s *Server) sessionMachineConfig(spec *backends.Spec, mode machine.Mode, mpus int) machine.Config {
	mc := workloads.MachineConfigFor(workloads.RunConfig{
		Spec: spec, Mode: mode, NoTrace: s.cfg.NoTrace, Workers: s.cfg.MachineWorkers,
	})
	mc.NumMPUs = mpus
	return mc
}

// acquireMachine pops an idle machine for the geometry or builds a fresh
// one. Idle machines may carry a previous tenant's state; both consumers
// overwrite it wholesale (Reset+LoadProgram on a session's first advance,
// Restore on every later one).
func (s *Server) acquireMachine(sess *session) (*machine.Machine, error) {
	s.sess.mu.Lock()
	if ms := s.sess.idle[sess.key]; len(ms) > 0 {
		m := ms[len(ms)-1]
		s.sess.idle[sess.key] = ms[:len(ms)-1]
		s.sess.mu.Unlock()
		return m, nil
	}
	s.sess.mu.Unlock()
	return machine.New(s.sessionMachineConfig(sess.spec, sess.mode, sess.compiled.MPUs))
}

// releaseMachine returns a machine to the free list (bounded; overflow is
// dropped for the collector — building a machine is cheap, holding dozens of
// idle ones is not).
func (s *Server) releaseMachine(key string, m *machine.Machine) {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	if len(s.sess.idle[key]) < s.sess.maxIdle {
		s.sess.idle[key] = append(s.sess.idle[key], m)
	}
}

// createSession compiles the graph and installs the session. One of the
// three audited writers of the session table (cmd/repolint rule 8).
func (s *Server) createSession(req *PipelineRequest) (*PipelineResponse, int, error) {
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	spec, err := backends.ByName(req.Backend)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("pipeline request needs a source graph")
	}
	maxMPUs := s.cfg.MaxPipelineMPUs
	if req.MaxMPUs > 0 && req.MaxMPUs < maxMPUs {
		maxMPUs = req.MaxMPUs
	}
	c, err := fbp.CompileSource(req.Source, fbp.Options{Spec: spec, MaxMPUs: maxMPUs})
	if err != nil {
		// The same admission taxonomy as /v1/execute: malformed submissions
		// are 400, graphs the machine-level verifier rejects are 422 with
		// the finding report attached.
		var le *fbp.LintError
		if errors.As(err, &le) {
			return nil, http.StatusUnprocessableEntity, &admissionError{report: le.Report}
		}
		return nil, http.StatusBadRequest, err
	}
	nodeMPU := make(map[string]int, len(c.Nodes))
	for _, n := range c.Nodes {
		nodeMPU[n.Name] = n.MPU
	}
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	if len(s.sess.sessions) >= s.cfg.MaxSessions {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("session table full (%d live sessions)", s.cfg.MaxSessions)
	}
	s.sess.nextID++
	id := "p" + strconv.FormatUint(s.sess.nextID, 10)
	if s.cfg.NodeID != "" {
		id = s.cfg.NodeID + "-" + id
	}
	sess := &session{
		id: id, key: sessionKey(spec, mode, c.MPUs),
		spec: spec, mode: mode, compiled: c, nodeMPU: nodeMPU, created: time.Now(),
	}
	if s.sess.sessions == nil {
		s.sess.sessions = map[string]*session{}
	}
	s.sess.sessions[id] = sess
	s.metrics.observeSessionOpen(1)
	return &PipelineResponse{
		ID: id, Backend: spec.Name, Mode: mode.String(),
		MPUs: c.MPUs, Lanes: spec.Lanes, Hops: c.Hops, Nodes: c.Nodes,
	}, http.StatusOK, nil
}

// advanceSession streams one request's records through the session: claim,
// restore (or first-load), then per record Rewind → write → Run → read, and
// finally park the state and free the machine. One of the three audited
// writers of the session table (cmd/repolint rule 8) — it claims and
// releases the busy flag and swaps the parked snapshot.
func (s *Server) advanceSession(id string, req *AdvanceRequest) (*AdvanceResponse, int, error) {
	if len(req.Records) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("advance request carries no records")
	}
	if len(req.Records) > maxAdvanceRecords {
		return nil, http.StatusBadRequest, fmt.Errorf("advance request carries %d records, cap is %d per request", len(req.Records), maxAdvanceRecords)
	}
	s.sess.mu.Lock()
	sess := s.sess.sessions[id]
	if sess == nil {
		s.sess.mu.Unlock()
		return nil, http.StatusNotFound, fmt.Errorf("no session %q", id)
	}
	if sess.busy {
		s.sess.mu.Unlock()
		return nil, http.StatusConflict, fmt.Errorf("session %q has an advance in flight", id)
	}
	sess.busy = true
	snap, loaded := sess.snap, sess.loaded
	s.sess.mu.Unlock()

	unclaim := func() {
		s.sess.mu.Lock()
		sess.busy = false
		s.sess.mu.Unlock()
	}
	m, err := s.acquireMachine(sess)
	if err != nil {
		unclaim()
		return nil, http.StatusInternalServerError, err
	}
	switch {
	case snap != nil:
		// A failed Restore leaves the machine untouched, so it can safely go
		// back to the free list while the session keeps its old snapshot.
		if err := m.Restore(snap); err != nil {
			s.releaseMachine(sess.key, m)
			unclaim()
			return nil, http.StatusInternalServerError, err
		}
	case !loaded:
		m.Reset()
		for mpu, p := range sess.compiled.Programs {
			if err := m.LoadProgram(mpu, p); err != nil {
				s.releaseMachine(sess.key, m)
				unclaim()
				return nil, http.StatusInternalServerError, err
			}
		}
	}

	resp := &AdvanceResponse{ID: id}
	status := http.StatusOK
	var reqErr error
	for _, rec := range req.Records {
		m.Rewind()
		if status, reqErr = s.applySets(m, sess, rec.Sets); reqErr != nil {
			break
		}
		st, err := m.Run()
		if err != nil {
			status, reqErr = http.StatusInternalServerError, err
			break
		}
		rr := RecordResult{}
		if rr.Dumps, reqErr = s.readDumps(m, sess, rec.Dumps); reqErr != nil {
			status = http.StatusBadRequest
			break
		}
		if req.Stats {
			b, err := json.Marshal(st)
			if err != nil {
				status, reqErr = http.StatusInternalServerError, err
				break
			}
			rr.Stats = b
		}
		resp.Records = append(resp.Records, rr)
		resp.Summary.Records++
		resp.Summary.Cycles += st.Cycles
		resp.Summary.TraceHits += st.TraceHits
		resp.Summary.TraceMisses += st.TraceMisses
		resp.Summary.JITCompiles += st.JITCompiles
		resp.Summary.JITReplays += st.JITReplays
		s.metrics.rollupStats(st.TraceHits, st.TraceMisses, st.TraceFallbacks, st.JITCompiles, st.JITReplays, st.Rounds)
	}

	// Park whatever state the stream reached — also on a record error, so a
	// bad record (wrong lane count, unknown node) costs that request, not
	// the session.
	newSnap := m.Snapshot()
	s.releaseMachine(sess.key, m)
	s.sess.mu.Lock()
	delta := len(newSnap) - len(sess.snap)
	sess.snap = newSnap
	sess.loaded = true
	sess.records += uint64(resp.Summary.Records)
	resp.Summary.TotalRecords = sess.records
	sess.busy = false
	s.sess.mu.Unlock()
	s.metrics.observeSessionPark(resp.Summary.Records, delta)
	if reqErr != nil {
		return nil, status, reqErr
	}
	return resp, status, nil
}

func (s *Server) applySets(m *machine.Machine, sess *session, sets []PipelineSet) (int, error) {
	for _, set := range sets {
		mpu, ok := sess.nodeMPU[set.Node]
		if !ok {
			return http.StatusBadRequest, fmt.Errorf("set names unknown node %q", set.Node)
		}
		a := controlpath.VRFAddr{RFH: set.RFH, VRF: set.VRF}
		if err := m.WriteVector(mpu, a, set.Reg, set.Values); err != nil {
			return http.StatusBadRequest, err
		}
	}
	return http.StatusOK, nil
}

func (s *Server) readDumps(m *machine.Machine, sess *session, refs []PipelineRef) ([]PipelineDump, error) {
	var out []PipelineDump
	for _, d := range refs {
		mpu, ok := sess.nodeMPU[d.Node]
		if !ok {
			return nil, fmt.Errorf("dump names unknown node %q", d.Node)
		}
		a := controlpath.VRFAddr{RFH: d.RFH, VRF: d.VRF}
		vals, err := m.ReadVector(mpu, a, d.Reg)
		if err != nil {
			return nil, err
		}
		out = append(out, PipelineDump{Node: d.Node, RFH: d.RFH, VRF: d.VRF, Reg: d.Reg, Values: vals})
	}
	return out, nil
}

// closeSession removes a session and releases its parked snapshot. One of
// the three audited writers of the session table (cmd/repolint rule 8).
func (s *Server) closeSession(id string) (*SessionStatus, int, error) {
	s.sess.mu.Lock()
	sess := s.sess.sessions[id]
	if sess == nil {
		s.sess.mu.Unlock()
		return nil, http.StatusNotFound, fmt.Errorf("no session %q", id)
	}
	if sess.busy {
		s.sess.mu.Unlock()
		return nil, http.StatusConflict, fmt.Errorf("session %q has an advance in flight", id)
	}
	delete(s.sess.sessions, id)
	st := sess.status()
	s.sess.mu.Unlock()
	s.metrics.observeSessionClose(st.SnapshotBytes)
	return st, http.StatusOK, nil
}

// status renders the session's externally visible state; call with the
// manager mutex held.
func (sess *session) status() *SessionStatus {
	return &SessionStatus{
		ID:            sess.id,
		Backend:       sess.spec.Name,
		Mode:          sess.mode.String(),
		MPUs:          sess.compiled.MPUs,
		Nodes:         sess.compiled.Nodes,
		Records:       sess.records,
		Parked:        sess.snap != nil && !sess.busy,
		Busy:          sess.busy,
		SnapshotBytes: len(sess.snap),
		AgeSec:        time.Since(sess.created).Seconds(),
	}
}

// handlePipelines serves the collection endpoint: POST creates a session,
// GET lists the live ones.
func (s *Server) handlePipelines(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.sess.mu.Lock()
		ids := make([]string, 0, len(s.sess.sessions))
		for id := range s.sess.sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var out struct {
			Sessions []*SessionStatus `json:"sessions"`
		}
		out.Sessions = []*SessionStatus{}
		for _, id := range ids {
			out.Sessions = append(out.Sessions, s.sess.sessions[id].status())
		}
		s.sess.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		start := time.Now()
		if s.Draining() {
			s.refusePipeline(w, "", start, "draining")
			return
		}
		var req PipelineRequest
		body := http.MaxBytesReader(w, r.Body, 1<<20)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.finishPipeline(w, "", "create", start, http.StatusBadRequest,
				errResult(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)))
			return
		}
		resp, status, err := s.createSession(&req)
		if err != nil {
			if status == http.StatusServiceUnavailable {
				s.refusePipeline(w, "", start, err.Error())
				return
			}
			s.finishPipeline(w, "", "create", start, status, pipelineError(status, err))
			return
		}
		s.finishPipeline(w, resp.ID, "create", start, status, jsonResult(status, resp))
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET or POST only"})
	}
}

// handlePipelineID serves one session: POST advances it, GET reports its
// status, DELETE closes it.
func (s *Server) handlePipelineID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/pipelines/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "want /v1/pipelines/{id}"})
		return
	}
	start := time.Now()
	switch r.Method {
	case http.MethodGet:
		s.sess.mu.Lock()
		sess := s.sess.sessions[id]
		var st *SessionStatus
		if sess != nil {
			st = sess.status()
		}
		s.sess.mu.Unlock()
		if st == nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no session %q", id)})
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		// Advancing an existing session is admitted work, so it keeps
		// flowing during a drain; only new sessions are refused.
		var req AdvanceRequest
		body := http.MaxBytesReader(w, r.Body, 64<<20)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.finishPipeline(w, id, "advance", start, http.StatusBadRequest,
				errResult(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)))
			return
		}
		resp, status, err := s.advanceSession(id, &req)
		if err != nil {
			s.finishPipeline(w, id, "advance", start, status, pipelineError(status, err))
			return
		}
		s.finishPipeline(w, id, "advance", start, status, jsonResult(status, resp))
	case http.MethodDelete:
		st, status, err := s.closeSession(id)
		if err != nil {
			s.finishPipeline(w, id, "close", start, status, pipelineError(status, err))
			return
		}
		s.finishPipeline(w, id, "close", start, status, jsonResult(status, st))
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET, POST, or DELETE only"})
	}
}

// pipelineError renders an error into the shared errorBody envelope,
// attaching the finding report on 422s exactly as /v1/execute does.
func pipelineError(status int, err error) *batchResult {
	var adm *admissionError
	if errors.As(err, &adm) {
		body, _ := json.Marshal(errorBody{Error: adm.Error(), Findings: adm.report.Findings})
		return &batchResult{status: status, body: body}
	}
	return errResult(status, err)
}

func jsonResult(status int, v any) *batchResult {
	body, err := json.Marshal(v)
	if err != nil {
		return errResult(http.StatusInternalServerError, err)
	}
	return &batchResult{status: status, body: body}
}

// finishPipeline writes the response, counts it in the metrics plane, and
// logs one line.
func (s *Server) finishPipeline(w http.ResponseWriter, id, op string, start time.Time, status int, res *batchResult) {
	elapsed := time.Since(start).Seconds()
	s.metrics.observeRequest(status, elapsed)
	writeBody(w, status, res.body)
	e := logEntry{Msg: "pipeline", Pipeline: id, Workload: op, Status: status, MS: elapsed * 1e3}
	if status >= 400 {
		var eb errorBody
		if json.Unmarshal(res.body, &eb) == nil {
			e.Err = eb.Error
		}
	}
	s.logger.log(e)
}

// refusePipeline is the 503 + Retry-After path for creates (draining, or the
// session table is full).
func (s *Server) refusePipeline(w http.ResponseWriter, id string, start time.Time, why string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	s.metrics.observeDrop(http.StatusServiceUnavailable)
	res := errResult(http.StatusServiceUnavailable, fmt.Errorf("not admitted: %s", why))
	writeBody(w, res.status, res.body)
	s.logger.log(logEntry{Msg: "refused", Pipeline: id, Workload: "create",
		Status: http.StatusServiceUnavailable, MS: msSince(start), Err: why})
}
