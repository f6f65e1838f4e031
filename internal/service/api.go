package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ffmr/internal/graph"
)

// This file is the service's HTTP/JSON wire surface. The write path is
// POST /v1/submit plus GET /v1/jobs/{id} for polling; the read path is
// GET /v1/query/* served straight from the resident generation views.
// Every query answer carries the handle's generation tag, so a client
// interleaving reads with updates can tell exactly which state answered.

// MaxSubmitBytes bounds a POST /v1/submit body. A larger body is refused
// with 413 Request Entity Too Large before it is decoded in full, so one
// client cannot make the service buffer an unbounded graph. 16 MiB holds
// a solve of about 600 k edges in the GraphSpec row form.
const MaxSubmitBytes = 16 << 20

// Job kinds accepted by /v1/submit.
const (
	KindSolve  = "solve"
	KindUpdate = "update"
)

// GraphSpec is the wire form of a flow network. Edges are
// [u, v, cap] or [u, v, cap, 1] rows; the fourth element marks the edge
// directed (absent or 0: undirected, the paper's default).
type GraphSpec struct {
	NumVertices int       `json:"num_vertices"`
	Source      int64     `json:"source"`
	Sink        int64     `json:"sink"`
	Edges       [][]int64 `json:"edges"`
}

func (g *GraphSpec) toInput() (*graph.Input, error) {
	in := &graph.Input{
		NumVertices: g.NumVertices,
		Source:      graph.VertexID(g.Source),
		Sink:        graph.VertexID(g.Sink),
		Edges:       make([]graph.InputEdge, 0, len(g.Edges)),
	}
	for i, row := range g.Edges {
		if len(row) != 3 && len(row) != 4 {
			return nil, fmt.Errorf("service: edge %d has %d elements, want [u,v,cap] or [u,v,cap,directed]", i, len(row))
		}
		e := graph.InputEdge{
			U:   graph.VertexID(row[0]),
			V:   graph.VertexID(row[1]),
			Cap: row[2],
		}
		if len(row) == 4 && row[3] != 0 {
			e.Directed = true
		}
		in.Edges = append(in.Edges, e)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// UpdateSpec is the wire form of one dynamic-graph update.
type UpdateSpec struct {
	// Op is "insert", "set-cap" or "delete".
	Op string `json:"op"`
	// U, V, Cap, Directed describe an inserted edge.
	U        int64 `json:"u,omitempty"`
	V        int64 `json:"v,omitempty"`
	Cap      int64 `json:"cap,omitempty"`
	Directed bool  `json:"directed,omitempty"`
	// ID targets an existing edge ("set-cap", "delete").
	ID int64 `json:"id,omitempty"`
}

func decodeUpdates(specs []UpdateSpec) ([]graph.Update, error) {
	batch := make([]graph.Update, 0, len(specs))
	for i, u := range specs {
		switch u.Op {
		case "insert":
			batch = append(batch, graph.InsertEdge(
				graph.VertexID(u.U), graph.VertexID(u.V), u.Cap, u.Directed))
		case "set-cap":
			batch = append(batch, graph.SetCapacity(graph.EdgeID(u.ID), u.Cap, u.Directed))
		case "delete":
			batch = append(batch, graph.DeleteEdge(graph.EdgeID(u.ID)))
		default:
			return nil, fmt.Errorf("service: update %d has unknown op %q", i, u.Op)
		}
	}
	return batch, nil
}

// SubmitRequest is the POST /v1/submit body.
type SubmitRequest struct {
	Tenant   string `json:"tenant"`
	Handle   string `json:"handle"`
	Priority int    `json:"priority,omitempty"`
	// Kind is "solve" (default) or "update".
	Kind string `json:"kind,omitempty"`
	// Graph is the solve payload; Variant optionally picks FF1..FF5
	// (0: the service default).
	Graph   *GraphSpec `json:"graph,omitempty"`
	Variant int        `json:"variant,omitempty"`
	// Engine picks the solver for a solve job: "ffmr", "prflow", or
	// "auto" (the instance-probing portfolio). Empty defaults to the
	// service's configured engine, or "auto" when none is configured.
	// Updates always warm-restart with FFMR regardless of the engine
	// that produced the base solve.
	Engine string `json:"engine,omitempty"`
	// Updates is the update payload.
	Updates []UpdateSpec `json:"updates,omitempty"`
}

// JobResult is a completed job's outcome.
type JobResult struct {
	Handle string `json:"handle"`
	// Gen is the store generation this job published.
	Gen  int64 `json:"gen"`
	Flow int64 `json:"flow"`
	// Rounds counts MR rounds the solve (or warm restart) ran.
	Rounds int `json:"rounds"`
	// Violations counts capacity violations an update batch repaired.
	Violations int `json:"violations,omitempty"`
}

// JobInfo is a job's API representation.
type JobInfo struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Kind     string     `json:"kind"`
	Handle   string     `json:"handle"`
	Priority int        `json:"priority"`
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	// QueueMS is time spent queued; RunMS time spent running (so far,
	// for a running job).
	QueueMS int64 `json:"queue_ms"`
	RunMS   int64 `json:"run_ms,omitempty"`
}

// FlowReply answers /v1/query/flow.
type FlowReply struct {
	Handle string `json:"handle"`
	Gen    int64  `json:"gen"`
	Flow   int64  `json:"flow"`
}

// CutReply answers /v1/query/cut. With a vertex it reports the vertex's
// cut side; without one it summarizes the minimum cut.
type CutReply struct {
	Handle string `json:"handle"`
	Gen    int64  `json:"gen"`
	Vertex *int64 `json:"vertex,omitempty"`
	// SourceSide reports whether Vertex lies on the cut's source side.
	SourceSide *bool `json:"source_side,omitempty"`
	// CutEdges/CutCapacity summarize the cut (vertex-less form). By the
	// max-flow min-cut theorem CutCapacity equals the flow value.
	CutEdges    int   `json:"cut_edges,omitempty"`
	CutCapacity int64 `json:"cut_capacity,omitempty"`
}

// ResidualReply answers /v1/query/residual for one edge.
type ResidualReply struct {
	Handle      string `json:"handle"`
	Gen         int64  `json:"gen"`
	Edge        int64  `json:"edge"`
	U           int64  `json:"u"`
	V           int64  `json:"v"`
	Cap         int64  `json:"cap"`
	Directed    bool   `json:"directed"`
	Flow        int64  `json:"flow"`
	ResidualFwd int64  `json:"residual_fwd"`
	ResidualRev int64  `json:"residual_rev"`
}

// apiError is the error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// apiMux wires the client API routes.
func (s *Service) apiMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/handles", s.handleHandles)
	mux.HandleFunc("/v1/query/flow", s.timedQuery(s.handleQueryFlow))
	mux.HandleFunc("/v1/query/cut", s.timedQuery(s.handleQueryCut))
	mux.HandleFunc("/v1/query/residual", s.timedQuery(s.handleQueryResidual))
	return mux
}

// timedQuery wraps a query handler with latency observation: every hit
// lands in the service-wide histogram, and hits whose handle resolves to
// an owner land in that tenant's histogram too (the percentiles /status
// reports per tenant). Measured around the whole handler, so view
// computation (e.g. a min-cut walk) is included, not just the lookup.
func (s *Service) timedQuery(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		d := time.Since(t0).Nanoseconds()
		reg := s.tracer.Registry()
		reg.Histogram(HistServiceQueryNS).Observe(d)
		if res := s.store.get(r.URL.Query().Get("handle")); res != nil {
			reg.Histogram(tenantQueryHist(res.tenant)).Observe(d)
		}
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("service: submit body exceeds %d bytes", MaxSubmitBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad submit body: %w", err))
		return
	}
	j, err := s.submit(&req)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len("/v1/jobs/"):]
	j := s.lookupJob(id)
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Service) handleHandles(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.store.status())
}

// latestView resolves a query's handle to its newest generation,
// answering 404 for handles the store doesn't serve yet.
func (s *Service) latestView(w http.ResponseWriter, r *http.Request) (*Generation, bool) {
	s.queries.Add(1)
	handle := r.URL.Query().Get("handle")
	res := s.store.get(handle)
	if res == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("service: unknown handle %q", handle))
		return nil, false
	}
	g := res.latest()
	if g == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("service: handle %q has no solved generation yet", handle))
		return nil, false
	}
	return g, true
}

func (s *Service) handleQueryFlow(w http.ResponseWriter, r *http.Request) {
	g, ok := s.latestView(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, FlowReply{
		Handle: r.URL.Query().Get("handle"),
		Gen:    g.Gen,
		Flow:   g.View.FlowValue,
	})
}

func (s *Service) handleQueryCut(w http.ResponseWriter, r *http.Request) {
	g, ok := s.latestView(w, r)
	if !ok {
		return
	}
	reply := CutReply{Handle: r.URL.Query().Get("handle"), Gen: g.Gen}
	if vs := r.URL.Query().Get("vertex"); vs != "" {
		v, err := strconv.ParseInt(vs, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad vertex %q", vs))
			return
		}
		side, ok := g.View.SourceSide(graph.VertexID(v))
		if !ok {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("service: vertex %d out of range (n=%d)", v, g.View.NumVertices))
			return
		}
		reply.Vertex, reply.SourceSide = &v, &side
	} else {
		cut, cap := g.View.MinCut()
		reply.CutEdges, reply.CutCapacity = len(cut), cap
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Service) handleQueryResidual(w http.ResponseWriter, r *http.Request) {
	g, ok := s.latestView(w, r)
	if !ok {
		return
	}
	es := r.URL.Query().Get("edge")
	id, err := strconv.ParseInt(es, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad edge %q", es))
		return
	}
	e, ok2 := g.View.Edge(graph.EdgeID(id))
	if !ok2 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("service: edge %d out of range (m=%d)", id, g.View.NumEdges()))
		return
	}
	writeJSON(w, http.StatusOK, ResidualReply{
		Handle:      r.URL.Query().Get("handle"),
		Gen:         g.Gen,
		Edge:        id,
		U:           int64(e.U),
		V:           int64(e.V),
		Cap:         e.Cap,
		Directed:    e.Directed,
		Flow:        e.Flow,
		ResidualFwd: e.ResidualFwd,
		ResidualRev: e.ResidualRev,
	})
}
