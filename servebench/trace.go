package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/session"
)

// Request headers the benchmark's client sets in a traced phase: the
// client span that issued the request, and the session's client ref.
const (
	hdrSpan    = "X-Servebench-Span"
	hdrSession = "X-Servebench-Session"
)

// span is one timed interval at a layer boundary. Spans of one session
// share sess; a handler span's parent is the client span of the same
// request, a store or RPC span's parent the handler span in flight for
// its session.
type span struct {
	id, parent int64
	name, sess string
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps a traced phase's spans in memory and the counts the
// wrappers see; it is read once the phase is over.
type tracer struct {
	epoch time.Time
	clock obs.Clock
	// fsync is handed to the disk store, which times its WAL fsync with
	// it (the store itself never reads the clock).
	fsync *obs.Histogram

	mu    sync.Mutex
	spans []span
	// open maps a session ref to its in-flight handler span.
	open map[string]int64
	// refOf maps a server session ID or a cluster runner to its ref.
	refOf map[string]string

	storeBytes atomic.Int64
	rpcBytes   atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{
		epoch: time.Now(),
		fsync: obs.NewHistogram(obs.ExpBuckets(1e-6, 1.1, 200)),
		open:  map[string]int64{},
		refOf: map[string]string{},
	}
	t.clock = func() int64 { return int64(time.Since(t.epoch)) }
	return t
}

// begin opens a span and returns its ID (IDs start at 1; 0 is "none").
func (t *tracer) begin(name string, parent int64, sess string) int64 {
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int64(len(t.spans) + 1), parent: parent, name: name, sess: sess, start: now, end: -1})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	now := t.clock()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// beginFor opens a span under the handler span in flight for the
// session known by key (a server session ID or a cluster runner).
func (t *tracer) beginFor(name, key string) int64 {
	t.mu.Lock()
	ref := t.refOf[key]
	parent := t.open[ref]
	t.mu.Unlock()
	return t.begin(name, parent, ref)
}

func (t *tracer) bind(key, ref string) {
	t.mu.Lock()
	t.refOf[key] = ref
	t.mu.Unlock()
}

// routeOf names the API operation of a request.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "create"
	case strings.HasSuffix(p, "/batch"):
		return "batch"
	case strings.HasSuffix(p, "/answers"):
		return "answers"
	case strings.HasSuffix(p, "/result"):
		return "result"
	}
	return "other"
}

// handler wraps the server's handler with one span per request, parented
// to the client span named in the request's header.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		ref := r.Header.Get(hdrSession)
		id := t.begin("server."+routeOf(r), parent, ref)
		if ref != "" {
			t.mu.Lock()
			t.open[ref] = id
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		if ref != "" {
			t.mu.Lock()
			delete(t.open, ref)
			t.mu.Unlock()
		}
		t.end(id)
	})
}

// clientRef extracts the client_ref of a marshaled CreateRequest without
// decoding the (large) inline KBs; the field follows them.
func clientRef(spec []byte) string {
	const key = `"client_ref":"`
	i := bytes.LastIndex(spec, []byte(key))
	if i < 0 {
		return ""
	}
	rest := spec[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// tracedStore times every store call the server makes, attributed to the
// session it is for and to that session's request in flight.
type tracedStore struct {
	session.Store
	t *tracer
}

func (s *tracedStore) Create(id string, meta, snapshot []byte) error {
	s.t.bind(id, clientRef(meta))
	sp := s.t.beginFor("store.create", id)
	err := s.Store.Create(id, meta, snapshot)
	s.t.end(sp)
	s.t.storeBytes.Add(int64(len(meta) + len(snapshot)))
	return err
}

func (s *tracedStore) AppendAnswer(id string, seq int, rec session.AnswerRec) error {
	sp := s.t.beginFor("store.append", id)
	err := s.Store.AppendAnswer(id, seq, rec)
	s.t.end(sp)
	if b, merr := json.Marshal(rec); merr == nil {
		s.t.storeBytes.Add(int64(len(b)))
	}
	return err
}

func (s *tracedStore) PutSnapshot(id string, snapshot []byte) error {
	sp := s.t.beginFor("store.snapshot", id)
	err := s.Store.PutSnapshot(id, snapshot)
	s.t.end(sp)
	s.t.storeBytes.Add(int64(len(snapshot)))
	return err
}

// proxy sits between the coordinator and one cluster worker and relays
// frames with cluster.ReadFrame/WriteFrame, timing each RPC from the
// request frame read to the response frame written.
type proxy struct {
	ln     net.Listener
	target string
	t      *tracer
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
}

func startProxy(target string, t *tracer) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	px := &proxy{ln: ln, target: target, t: t, conns: map[net.Conn]struct{}{}}
	px.wg.Add(1)
	go px.serve()
	return px, nil
}

func (px *proxy) serve() {
	defer px.wg.Done()
	for {
		c, err := px.ln.Accept()
		if err != nil {
			return
		}
		if !px.track(c) {
			return
		}
		px.wg.Add(1)
		go px.relay(c)
	}
}

// track registers a connection for close; it refuses once closed.
func (px *proxy) track(c net.Conn) bool {
	px.mu.Lock()
	defer px.mu.Unlock()
	if px.conns == nil {
		c.Close()
		return false
	}
	px.conns[c] = struct{}{}
	return true
}

func (px *proxy) close() {
	px.ln.Close()
	px.mu.Lock()
	for c := range px.conns {
		c.Close()
	}
	px.conns = nil
	px.mu.Unlock()
	px.wg.Wait()
}

// relay serves one coordinator connection. Each frame is decoded with
// cluster.ReadFrame (which validates it and names the method) and then
// forwarded as the exact bytes read, so the proxy adds a socket hop but
// no re-encoding.
func (px *proxy) relay(c net.Conn) {
	defer px.wg.Done()
	defer c.Close()
	wc, err := net.Dial("tcp", px.target)
	if err != nil {
		return
	}
	if !px.track(wc) {
		return
	}
	defer wc.Close()
	var raw bytes.Buffer
	for {
		raw.Reset()
		req, err := cluster.ReadFrame(io.TeeReader(c, &raw))
		if err != nil {
			return
		}
		ping := req.Method == cluster.MethodPing
		var sp int64
		if !ping {
			var body struct {
				Runner string `json:"runner"`
				Spec   []byte `json:"spec"`
			}
			_ = json.Unmarshal(req.Body, &body) // unattributed when the body does not parse
			if len(body.Spec) > 0 {
				px.t.bind("runner:"+body.Runner, clientRef(body.Spec))
			}
			sp = px.t.beginFor("cluster.rpc."+req.Method, "runner:"+body.Runner)
		}
		if _, err := wc.Write(raw.Bytes()); err != nil {
			return
		}
		n := raw.Len()
		raw.Reset()
		if _, err := cluster.ReadFrame(io.TeeReader(wc, &raw)); err != nil {
			return
		}
		_, err = c.Write(raw.Bytes())
		if !ping {
			px.t.end(sp)
			px.t.rpcBytes.Add(int64(n + raw.Len()))
		}
		if err != nil {
			return
		}
	}
}

// layers lists the layers from outermost to innermost. An instant of a
// session's wall time is charged to the innermost layer with a span of
// the session open then, so parallel RPCs count once and the layers add
// up to the session's wall time exactly. "unattributed" is the session
// span itself: the client between requests.
var layers = []string{"unattributed", "transport", "handler", "store", "rpc"}

// layerOf maps a span to its index in layers.
func layerOf(name string) int {
	switch {
	case strings.HasPrefix(name, "client."):
		return 1
	case strings.HasPrefix(name, "server."):
		return 2
	case strings.HasPrefix(name, "store."):
		return 3
	case strings.HasPrefix(name, "cluster.rpc."):
		return 4
	}
	return 0
}

// analysis is a traced phase's spans folded into self times.
type analysis struct {
	spans []span
	self  []int64 // self time per span index, ns
	// perSession maps a session ref to the wall time charged to each
	// layer, ns, plus "session", its whole wall time.
	perSession map[string]map[string]int64
	// byName collects span durations by span name, ms.
	byName map[string][]float64
}

// analyze computes every span's self time (its duration minus the part
// of it its children cover) and charges each session's wall time to its
// layers.
func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	a := &analysis{spans: spans, self: make([]int64, len(spans)), perSession: map[string]map[string]int64{}, byName: map[string][]float64{}}
	kids := map[int64][]int{}
	for i, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		a.byName[s.name] = append(a.byName[s.name], float64(s.end-s.start)/1e6)
		var iv [][2]int64
		for _, k := range kids[s.id] {
			c := spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if c.end >= 0 && hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		a.self[i] = (s.end - s.start) - covered(iv)
	}
	// A session's spans are its tree under its root, so a store or RPC
	// span that ran with no request of its session in flight is charged
	// to no session.
	for i, s := range spans {
		if s.name != "session" || s.end < 0 {
			continue
		}
		var members []int
		stack := []int{i}
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, j)
			stack = append(stack, kids[spans[j].id]...)
		}
		tot := charge(spans, members, s.start, s.end)
		tot["session"] = s.end - s.start
		a.perSession[s.sess] = tot
	}
	return a
}

// charge sweeps [lo, hi) and charges every instant to the innermost
// layer with a member span open.
func charge(spans []span, members []int, lo, hi int64) map[string]int64 {
	type event struct {
		t     int64
		layer int
		d     int
	}
	var evs []event
	for _, j := range members {
		s := spans[j]
		a, b := max(s.start, lo), min(s.end, hi)
		if s.end < 0 || b <= a {
			continue
		}
		l := layerOf(s.name)
		evs = append(evs, event{a, l, 1}, event{b, l, -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	active := make([]int, len(layers))
	out := map[string]int64{}
	add := func(from, to int64) {
		for l := len(layers) - 1; l > 0; l-- {
			if active[l] > 0 {
				out[layers[l]] += to - from
				return
			}
		}
		out[layers[0]] += to - from
	}
	prev := lo
	for _, e := range evs {
		if e.t > prev {
			add(prev, e.t)
			prev = e.t
		}
		active[e.layer] += e.d
	}
	if hi > prev {
		add(prev, hi)
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByPrefix returns the self times (ms) of the spans whose name has the
// given prefix.
func (a *analysis) selfByPrefix(prefix string) []float64 {
	var out []float64
	for i, s := range a.spans {
		if s.end >= 0 && strings.HasPrefix(s.name, prefix) {
			out = append(out, float64(a.self[i])/1e6)
		}
	}
	return out
}

// histQuantile interpolates the p-quantile of an obs histogram, in the
// histogram's unit.
func histQuantile(h *obs.Histogram, p float64) float64 {
	bounds, cum := h.Buckets()
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := p * float64(n)
	lo, prev := 0.0, int64(0)
	for i, b := range bounds {
		if float64(cum[i]) >= rank {
			inBucket := cum[i] - prev
			if inBucket == 0 {
				return b
			}
			return lo + (b-lo)*(rank-float64(prev))/float64(inBucket)
		}
		lo, prev = b, cum[i]
	}
	return lo
}
