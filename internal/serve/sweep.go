package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"radiocolor/internal/store"
)

// SweepRequest is the body of POST /v1/sweeps: a base job plus up to
// five swept dimensions. The grid is the cross product, expanded in a
// fixed nesting order — n, then seed, wakeup, faults, medium —
// so cell indices are deterministic and two replicas (or two runs)
// agree on which cell is which. An empty dimension keeps the base
// value and contributes a factor of one.
type SweepRequest struct {
	// Base is the job every cell starts from. Swept dimensions
	// override its corresponding field; everything else is shared.
	Base JobRequest `json:"base"`
	// N sweeps the topology node count; it requires Base.Topology
	// (explicit adjacency and point sets have no free n).
	N []int `json:"n,omitempty"`
	// Seed sweeps the run seed.
	Seed []int64 `json:"seed,omitempty"`
	// Wakeup sweeps the wake-up schedule by name.
	Wakeup []string `json:"wakeup,omitempty"`
	// Faults sweeps fault-injection specs (ParseFaults syntax; "" for
	// a fault-free cell).
	Faults []string `json:"faults,omitempty"`
	// Medium sweeps reception models (ParseMedium syntax; "" for the
	// default collision medium).
	Medium []string `json:"medium,omitempty"`
}

// expand materializes the grid in the canonical order. Every returned
// request is a self-contained JobRequest — byte-for-byte the job a
// client would have submitted individually for that cell.
func (r *SweepRequest) expand() ([]JobRequest, error) {
	if len(r.N) > 0 && r.Base.Topology == nil {
		return nil, errors.New("serve: sweeping n requires a base topology")
	}
	or1 := func(n int) int { // dimension factor: empty sweeps keep the base
		if n == 0 {
			return 1
		}
		return n
	}
	total := or1(len(r.N)) * or1(len(r.Seed)) * or1(len(r.Wakeup)) *
		or1(len(r.Faults)) * or1(len(r.Medium))
	cells := make([]JobRequest, 0, total)
	for in := 0; in < or1(len(r.N)); in++ {
		for is := 0; is < or1(len(r.Seed)); is++ {
			for iw := 0; iw < or1(len(r.Wakeup)); iw++ {
				for ifa := 0; ifa < or1(len(r.Faults)); ifa++ {
					for im := 0; im < or1(len(r.Medium)); im++ {
						cell := r.Base
						if len(r.N) > 0 {
							top := *r.Base.Topology
							top.N = r.N[in]
							cell.Topology = &top
						}
						if len(r.Seed) > 0 {
							cell.Seed = r.Seed[is]
						}
						if len(r.Wakeup) > 0 {
							cell.Wakeup = r.Wakeup[iw]
						}
						if len(r.Faults) > 0 {
							cell.Faults = r.Faults[ifa]
						}
						if len(r.Medium) > 0 {
							cell.Medium = r.Medium[im]
						}
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells, nil
}

// SweepCell is one grid cell in the aggregate: its index, how it
// ended, and the raw outcome bytes exactly as the equivalent
// individual job would have stored them. No ids or timestamps — the
// aggregate is a pure function of the grid, byte-identical across
// replicas and across runs with equal seeds.
type SweepCell struct {
	Cell    int             `json:"cell"`
	State   JobState        `json:"state"`
	Error   string          `json:"error,omitempty"`
	Outcome json.RawMessage `json:"outcome,omitempty"`
}

// SweepResult is the aggregate committed into the sweep's record once
// every cell is terminal.
type SweepResult struct {
	Cells []SweepCell `json:"cells"`
}

// SweepStatus is the wire status of a sweep.
type SweepStatus struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Cells is the grid size; the per-state counters track fan-out
	// progress (CellsDone counts state "done" only).
	Cells        int    `json:"cells"`
	CellsDone    int    `json:"cells_done"`
	CellsFailed  int    `json:"cells_failed"`
	CellsRunning int    `json:"cells_running"`
	CellsQueued  int    `json:"cells_queued"`
	Error        string `json:"error,omitempty"`
	// Result is the aggregate, present once the sweep is terminal
	// (absent for sweeps canceled before their cells finished).
	Result *SweepResult `json:"result,omitempty"`
	// CellIDs maps cell index to child job id, for drilling into a
	// single cell via /v1/jobs/{id}.
	CellIDs []string `json:"cell_ids,omitempty"`
}

// SweepStreamEvent is one frame of GET /v1/sweeps/{id}/stream.
type SweepStreamEvent struct {
	// Type is "status" (periodic progress), "cell" (a cell just
	// reached a terminal state), or "done" (the sweep is terminal;
	// Status carries the aggregate).
	Type   string       `json:"type"`
	State  JobState     `json:"state"`
	Cell   *SweepCell   `json:"cell,omitempty"`
	Status *SweepStatus `json:"status,omitempty"`
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	s.submitted.Add(1)
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	cells, err := req.expand()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if len(cells) > s.cfg.MaxSweepCells {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("serve: sweep has %d cells, limit %d", len(cells), s.cfg.MaxSweepCells)})
		return
	}
	// Validate the whole grid before admitting anything: a sweep is
	// all-or-nothing at submission.
	specs := make([]json.RawMessage, len(cells))
	for i := range cells {
		if _, err := cells[i].validate(); err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("cell %d: %v", i, err)})
			return
		}
		if n := cells[i].nodes(); n > s.cfg.MaxNodes {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("cell %d: %d nodes exceeds the limit of %d", i, n, s.cfg.MaxNodes)})
			return
		}
		if specs[i], err = json.Marshal(&cells[i]); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
	}
	parentSpec, err := json.Marshal(&req)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}

	// Admission: the parent and every child persist before the 202.
	// Sweeps deliberately bypass the QueueCap backlog bound — the bound
	// protects interactive submissions from each other, while a sweep's
	// size is governed by MaxSweepCells and is durable either way.
	s.admitMu.Lock()
	if s.isDraining() {
		s.admitMu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}
	parent := &store.Job{Kind: store.KindSweep, Spec: parentSpec, Submitted: s.now(), Cells: len(cells)}
	if err := s.st.Create(parent); err != nil {
		s.admitMu.Unlock()
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "store: " + err.Error()})
		return
	}
	for i, spec := range specs {
		child := &store.Job{Kind: store.KindJob, Spec: spec, Submitted: parent.Submitted, Parent: parent.ID, Cell: i}
		if err := s.st.Create(child); err != nil {
			// Partial fan-out: fail the parent explicitly; the created
			// children run and are pruned with it eventually.
			_ = s.st.Finish(parent.ID, "", store.StateFailed, nil, "fan-out: "+err.Error(), s.now())
			s.admitMu.Unlock()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "store: " + err.Error()})
			return
		}
	}
	s.admitMu.Unlock()
	s.accepted.Add(1)
	s.ctrl.AddSweep()
	s.ctrl.AddSweepCells(int64(len(cells)))
	s.wakeWorkers()
	st, _ := s.sweepStatus(parent)
	w.Header().Set("Location", "/v1/sweeps/"+parent.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// sweepParent fetches a sweep record by id, 404-ing plain jobs.
func (s *Server) sweepParent(id string) (*store.Job, error) {
	rec, err := s.st.Get(id)
	if err != nil {
		return nil, err
	}
	if rec.Kind != store.KindSweep {
		return nil, store.ErrNotFound
	}
	return rec, nil
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.sweepParent(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	if !store.State(rec.State).Terminal() {
		// Crash-safe catch-up: if the replica that finished the last
		// cell died before aggregating, any status read completes it.
		s.finalizeSweep(rec.ID)
		if rec, err = s.sweepParent(rec.ID); err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
			return
		}
	}
	st, err := s.sweepStatus(rec)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "store: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	parent, err := s.sweepParent(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	// Cancel the parent first so a concurrent finalize can't commit an
	// aggregate under us, then fan the cancel through the cells.
	if rec, changed, err := s.st.RequestCancel(parent.ID, s.now()); err == nil {
		if changed && rec.State == store.StateCanceled {
			s.canceled.Add(1)
		}
	}
	kids, err := s.st.List(store.Filter{Parent: parent.ID})
	if err == nil {
		for _, kid := range kids {
			rec, changed, err := s.st.RequestCancel(kid.ID, s.now())
			if err != nil {
				continue
			}
			if changed && rec.State == store.StateCanceled {
				s.canceled.Add(1)
				if j := s.lookup(kid.ID); j != nil {
					j.mu.Lock()
					j.state = StateCanceled
					j.finished = rec.Finished
					j.closeDone()
					j.mu.Unlock()
				}
			}
			if rec.State == store.StateRunning {
				if j := s.lookup(kid.ID); j != nil {
					j.mu.Lock()
					if j.state == StateRunning {
						j.canceled = true
						if j.cancel != nil {
							j.cancel()
						}
					}
					j.mu.Unlock()
				}
			}
		}
	}
	parent, err = s.sweepParent(parent.ID)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	st, err := s.sweepStatus(parent)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "store: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSweepStream serves GET /v1/sweeps/{id}/stream: an initial
// "status" frame, a "cell" frame as each cell reaches a terminal state
// (with its outcome), periodic "status" frames in between, and a final
// "done" frame with the aggregate. Cell completions are observed by
// polling the store, so the stream works regardless of which replicas
// execute the cells.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.sweepParent(id); err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	es, ok := newEventStream(w, r)
	if !ok {
		return
	}
	emitted := make(map[int]bool) // cell index → "cell" frame sent
	ticker := time.NewTicker(s.cfg.StreamInterval)
	defer ticker.Stop()
	first := true
	for {
		parent, err := s.sweepParent(id)
		if err != nil {
			return // pruned mid-stream
		}
		if !store.State(parent.State).Terminal() {
			s.finalizeSweep(id)
			parent, err = s.sweepParent(id)
			if err != nil {
				return
			}
		}
		kids, err := s.st.List(store.Filter{Parent: id})
		if err != nil {
			return
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].Cell < kids[j].Cell })
		for _, kid := range kids {
			if emitted[kid.Cell] || !store.State(kid.State).Terminal() {
				continue
			}
			emitted[kid.Cell] = true
			cell := sweepCellFromRecord(kid)
			if !es.emit("cell", SweepStreamEvent{Type: "cell", State: JobState(parent.State), Cell: &cell}) {
				return
			}
		}
		st, err := s.sweepStatus(parent)
		if err != nil {
			return
		}
		if st.State.Terminal() {
			es.emit("done", SweepStreamEvent{Type: "done", State: st.State, Status: &st})
			return
		}
		if first {
			first = false
			if !es.emit("status", SweepStreamEvent{Type: "status", State: st.State, Status: &st}) {
				return
			}
		} else if !es.emit("status", SweepStreamEvent{Type: "status", State: st.State}) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func sweepCellFromRecord(kid *store.Job) SweepCell {
	return SweepCell{
		Cell:    kid.Cell,
		State:   JobState(kid.State),
		Error:   kid.Error,
		Outcome: kid.Result,
	}
}

// sweepStatus builds the wire status of a sweep from its store
// records.
func (s *Server) sweepStatus(parent *store.Job) (SweepStatus, error) {
	kids, err := s.st.List(store.Filter{Parent: parent.ID})
	if err != nil {
		return SweepStatus{}, err
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Cell < kids[j].Cell })
	st := SweepStatus{
		ID:        parent.ID,
		State:     JobState(parent.State),
		Submitted: parent.Submitted,
		Cells:     parent.Cells,
		Error:     parent.Error,
		CellIDs:   make([]string, 0, len(kids)),
	}
	if !parent.Finished.IsZero() {
		t := parent.Finished
		st.Finished = &t
	}
	for _, kid := range kids {
		st.CellIDs = append(st.CellIDs, kid.ID)
		switch store.State(kid.State) {
		case store.StateDone:
			st.CellsDone++
		case store.StateQueued:
			st.CellsQueued++
		case store.StateRunning:
			st.CellsRunning++
		default:
			st.CellsFailed++
		}
	}
	if store.State(parent.State).Terminal() && len(parent.Result) > 0 {
		var agg SweepResult
		if err := json.Unmarshal(parent.Result, &agg); err == nil {
			st.Result = &agg
		}
	}
	return st, nil
}

// finalizeSweep commits the aggregate once every cell is terminal.
// Any replica may call it after finishing a cell (or lazily from a
// status read); the store's terminal guard makes the commit
// first-writer-wins, and since the aggregate is a deterministic
// function of the cell records, the racers would have written
// identical bytes anyway.
func (s *Server) finalizeSweep(parentID string) {
	parent, err := s.st.Get(parentID)
	if err != nil || parent.Kind != store.KindSweep || store.State(parent.State).Terminal() {
		return
	}
	kids, err := s.st.List(store.Filter{Parent: parentID})
	if err != nil || len(kids) < parent.Cells {
		return
	}
	for _, kid := range kids {
		if !store.State(kid.State).Terminal() {
			return
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Cell < kids[j].Cell })
	agg := SweepResult{Cells: make([]SweepCell, 0, len(kids))}
	failed := 0
	for _, kid := range kids {
		if store.State(kid.State) != store.StateDone {
			failed++
		}
		agg.Cells = append(agg.Cells, sweepCellFromRecord(kid))
	}
	res, err := json.Marshal(&agg)
	if err != nil {
		return
	}
	state := store.StateDone
	var errMsg string
	if failed > 0 {
		state = store.StateFailed
		errMsg = fmt.Sprintf("%d of %d cells did not complete", failed, len(kids))
	}
	if err := s.st.Finish(parentID, "", state, res, errMsg, s.now()); err == nil {
		s.ctrl.AddSweepDone()
	}
	// ErrTerminal here means another replica (or a concurrent cancel)
	// beat us to it — the designed race outcome.
}
