package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// unattributed names the share of a traced operation that no span on
// its timed path covers.
const unattributed = "unattributed"

// Headers a traced client request carries so the server-side route span
// can name its parent span and job.
const (
	hdrParent = "X-Perfbench-Parent"
	hdrJob    = "X-Perfbench-Job"
)

// Span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created. Spans of one operation share Job; the
// operation's root span has Job == ID and Parent == 0.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Phase is the workload phase the operation belongs to; Bytes the
	// response bytes of a route span.
	Phase string `json:"phase,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op and allocates nothing.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	// current is the job-level span of the operation in flight. The
	// benchmark runs a single closed-loop client, so a span recorded
	// where no request header can carry its parent (a worker route hit
	// by the program's own dispatcher) belongs to it.
	curSpan, curJob atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *Tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span, giving it an ID if it has none.
func (t *Tracer) record(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *Tracer) setCurrent(span, job int64) {
	if t == nil {
		return
	}
	t.curSpan.Store(span)
	t.curJob.Store(job)
}

// snapshot returns a copy of the recorded spans.
func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeFile writes every span as one JSON object per line.
func (t *Tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// routeNames maps the routes the benchmark drives to span names.
var routeNames = map[string]string{
	"POST /v1/sweeps":            "sweepserve.submit",
	"GET /v1/sweeps/{id}/events": "sweepserve.events",
	"GET /v1/sweeps/{id}/result": "sweepserve.result",
	"POST /v1/shards":            "sweepserve.worker.shards",
}

// tracedHandler records one span per request served by next. The parent
// comes from the client's headers, else from the tracer's current job.
type tracedHandler struct {
	t     *Tracer
	next  http.Handler
	mux   *http.ServeMux // resolves the route pattern only
	phase *atomic.Value  // string: the phase in flight
}

func newTracedHandler(t *Tracer, next http.Handler, phase *atomic.Value) http.Handler {
	mux := http.NewServeMux()
	//qa:allow determinism registering every pattern is order-free
	for pattern := range routeNames {
		mux.HandleFunc(pattern, func(http.ResponseWriter, *http.Request) {})
	}
	return &tracedHandler{t: t, next: next, mux: mux, phase: phase}
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.t.now()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	end := h.t.now()

	_, pattern := h.mux.Handler(r)
	name, ok := routeNames[pattern]
	if !ok {
		name = "sweepserve.other"
	}
	parent, err1 := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	job, err2 := strconv.ParseInt(r.Header.Get(hdrJob), 10, 64)
	if err1 != nil || err2 != nil {
		parent, job = h.t.curSpan.Load(), h.t.curJob.Load()
	}
	phase, _ := h.phase.Load().(string)
	h.t.record(Span{Parent: parent, Job: job, Name: name, Start: start, End: end, Phase: phase, Bytes: cw.n})
}

// countingWriter counts response bytes and keeps SSE flushing working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// attribution splits one root span's wall time among the spans of its
// job. Every instant of the root interval goes to exactly one name: the
// deepest span active at that instant, or unattributed when only the
// root is active. Among equally deep spans the shortest wins (then the
// larger ID): it is the more specific activity, so a worker batch beats
// the SSE route that waits for the whole job. Self times therefore sum
// to the root duration exactly, even when concurrent spans overlap.
func attribution(root Span, spans []Span) map[string]int64 {
	byID := map[int64]Span{root.ID: root}
	var kids []Span
	for _, s := range spans {
		if s.Job == root.Job && s.ID != root.ID {
			byID[s.ID] = s
			kids = append(kids, s)
		}
	}
	depth := func(s Span) int {
		d := 0
		for s.ID != root.ID && d < len(byID) {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
			d++
		}
		return d
	}
	type edge struct {
		at    int64
		open  bool
		index int
	}
	var edges []edge
	depths := make([]int, len(kids))
	for i, s := range kids {
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if hi <= lo {
			continue
		}
		depths[i] = depth(s)
		edges = append(edges, edge{lo, true, i}, edge{hi, false, i})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].open && edges[b].open // close before open
	})

	self := map[string]int64{}
	active := map[int]bool{}
	pick := func() string {
		best := -1
		for i := range kids {
			if !active[i] {
				continue
			}
			if best < 0 || outranks(kids[i], depths[i], kids[best], depths[best]) {
				best = i
			}
		}
		if best < 0 {
			return unattributed
		}
		return kids[best].Name
	}
	prev := root.Start
	for _, e := range edges {
		if e.at > prev {
			self[pick()] += e.at - prev
			prev = e.at
		}
		if e.open {
			active[e.index] = true
		} else {
			delete(active, e.index)
		}
	}
	if root.End > prev {
		self[pick()] += root.End - prev
	}
	return self
}

// outranks orders the active spans of attribution: deeper, then
// shorter, then the larger ID.
func outranks(a Span, da int, b Span, db int) bool {
	if da != db {
		return da > db
	}
	if a.dur() != b.dur() {
		return a.dur() < b.dur()
	}
	return a.ID > b.ID
}

// layerTable is the per-layer self time of one phase, summed over its
// traced operations.
type layerTable struct {
	Phase string
	Ops   int
	Total int64            // Σ root durations, ns
	Self  map[string]int64 // name -> Σ self time, ns
}

// sumCheck returns the rows' sum minus the total: zero by construction.
func (lt layerTable) sumCheck() int64 {
	var s int64
	for _, v := range lt.Self {
		s += v
	}
	return s - lt.Total
}

// buildLayerTable attributes every root span of phase.
func buildLayerTable(phase, rootName string, spans []Span) layerTable {
	lt := layerTable{Phase: phase, Self: map[string]int64{}}
	for _, r := range spans {
		if r.Name != rootName || r.Phase != phase || r.Parent != 0 {
			continue
		}
		lt.Ops++
		lt.Total += r.dur()
		for name, v := range attribution(r, spans) {
			lt.Self[name] += v
		}
	}
	return lt
}

// print writes the table: one row per name by descending self time,
// unattributed last, and the total.
func (lt layerTable) print(w *bytes.Buffer, workload string) {
	if lt.Ops == 0 {
		return
	}
	var names []string
	for n := range lt.Self {
		if n != unattributed {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(a, b int) bool {
		if lt.Self[names[a]] != lt.Self[names[b]] {
			return lt.Self[names[a]] > lt.Self[names[b]]
		}
		return names[a] < names[b]
	})
	names = append(names, unattributed)
	ops := float64(lt.Ops)
	fmt.Fprintf(w, "layers %s/%s (%d traced ops, self time per op)\n", workload, lt.Phase, lt.Ops)
	for _, n := range names {
		v := lt.Self[n]
		fmt.Fprintf(w, "  %-28s %12.3f ms %6.1f%%\n", n, float64(v)/1e6/ops, 100*float64(v)/float64(lt.Total))
	}
	fmt.Fprintf(w, "  %-28s %12.3f ms %6.1f%%  (rows sum to total: off by %d ns)\n",
		"total", float64(lt.Total)/1e6/ops, 100.0, lt.sumCheck())
}
