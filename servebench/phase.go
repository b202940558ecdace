package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

// pollInterval is how long a client waits before re-polling an empty
// batch, which it gets only while a sibling session holds every open
// question's reservation.
const pollInterval = 2 * time.Millisecond

// sessRec is one driven session.
type sessRec struct {
	idx     int
	e       entry
	in      *input // dropped once the session is done, unless held
	ref, id string
	root    int64 // session span (traced phases)
	shards  int
	answers int
	// setup and dur are seconds from the create request to the first
	// batch in hand and to the result fetched.
	setup, dur float64
	result     []byte
	dto        server.ResultDTO
	err        error
}

// phase is one timed run of a workload against one server: clients run
// closed loops, each taking the next plan entry, until --seconds have
// passed and the quality sessions are done.
type phase struct {
	w       *workload
	seed    int64
	seconds time.Duration
	clients int
	nonce   string
	in      *inputs
	crowd   crowd
	env     *env
	tr      *tracer
	hc      *http.Client

	next    atomic.Int64
	start   time.Time
	elapsed time.Duration

	mu         sync.Mutex
	sessions   []*sessRec
	ops        map[string][]float64 // client latency per operation, ms
	turnaround []float64            // ms
	finish     []float64            // ms
	emptyPolls int
	attempted  int
	failed     int
	errs       []string
	// posted holds, per input, the questions the crowd answered.
	posted map[string]map[string]bool

	cpuS, gcCPUS, allocB float64
	heapPeak             uint64
	// prom0 and prom1 are the server's /metrics before and after a
	// traced phase.
	prom0, prom1 map[string]any
}

func newPhase(w *workload, seed int64, seconds time.Duration, clients int, nonce string, in *inputs, e *env, tr *tracer) *phase {
	tp := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &phase{
		w: w, seed: seed, seconds: seconds, clients: clients, nonce: nonce, in: in,
		crowd: crowd{seed: seed, errRate: w.workerError}, env: e, tr: tr,
		hc:     &http.Client{Transport: tp, Timeout: 2 * time.Minute},
		ops:    map[string][]float64{},
		posted: map[string]map[string]bool{},
	}
}

// run drives the clients and measures the process while they run.
func (p *phase) run() {
	runtime.GC()
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	rt0 := readRuntime()
	stop := make(chan struct{})
	sampled := make(chan uint64)
	go sampleHeap(stop, sampled)

	p.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.client()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)

	close(stop)
	p.heapPeak = <-sampled
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	rt1 := readRuntime()
	p.cpuS = tv(ru1.Utime) + tv(ru1.Stime) - tv(ru0.Utime) - tv(ru0.Stime)
	p.gcCPUS = rt1[0] - rt0[0]
	p.allocB = rt1[1] - rt0[1]
	p.hc.CloseIdleConnections()
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// readRuntime returns the GC's CPU seconds and the bytes allocated so
// far.
func readRuntime() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var out [2]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

// sampleHeap samples the live heap (as of the last GC cycle) every 10ms
// until stop closes, then sends the peak. The live heap, unlike the heap
// including garbage, does not depend on where GC cycles fall.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var top uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			top = max(top, s[0].Value.Uint64())
		}
		select {
		case <-stop:
			peak <- top
			return
		case <-tick.C:
		}
	}
}

// client runs one closed loop: take the next plan entry while the
// quality sessions are not all taken or time remains.
func (p *phase) client() {
	for {
		i := int(p.next.Add(1) - 1)
		if i >= p.w.quality && time.Since(p.start) >= p.seconds {
			return
		}
		if err := p.drive(i); err != nil {
			p.mu.Lock()
			p.errs = append(p.errs, err.Error())
			p.mu.Unlock()
			return
		}
	}
}

// call issues one API request and decodes the JSON reply into out,
// recording the client latency of op.
func (p *phase) call(rec *sessRec, op, method, path string, body []byte, out any) (float64, error) {
	req, err := http.NewRequest(method, p.env.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var sp int64
	if p.tr != nil {
		sp = p.tr.begin("client."+op, rec.root, rec.ref)
		req.Header.Set(hdrSpan, strconv.FormatInt(sp, 10))
		req.Header.Set(hdrSession, rec.ref)
	}
	t0 := time.Now()
	err = p.roundTrip(req, out)
	d := time.Since(t0)
	if sp != 0 {
		p.tr.end(sp)
	}
	ms := float64(d.Nanoseconds()) / 1e6
	p.mu.Lock()
	p.attempted++
	if err != nil {
		p.failed++
	} else {
		p.ops[op] = append(p.ops[op], ms)
	}
	p.mu.Unlock()
	if err != nil {
		return ms, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return ms, nil
}

func (p *phase) roundTrip(req *http.Request, out any) error {
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// after records the crowd-facing latency of a request that returned the
// session's state: the finishing request, or one that advanced the loop.
func (p *phase) after(ms float64, loops *int, info *server.SessionInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case info.State == string(remp.SessionDone):
		p.finish = append(p.finish, ms)
	case info.Loops > *loops:
		p.turnaround = append(p.turnaround, ms)
	}
	*loops = info.Loops
}

// drive runs plan entry i as one session from create to result. The
// crowd answers the head of the open batch, one answer per request.
func (p *phase) drive(i int) error {
	e := p.w.entry(p.seed, i)
	in, err := p.in.get(e)
	if err != nil {
		return err
	}
	rec := &sessRec{idx: i, e: e, in: in, ref: fmt.Sprintf("servebench-%s-%s-%d", p.w.name, p.nonce, i)}
	body, err := json.Marshal(server.CreateRequest{KB1TSV: in.kb1, KB2TSV: in.kb2, Gold: in.goldTSV, ClientRef: rec.ref, Options: e.opts})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.sessions = append(p.sessions, rec)
	p.mu.Unlock()
	if p.tr != nil {
		rec.root = p.tr.begin("session", 0, rec.ref)
		defer p.tr.end(rec.root)
	}
	fail := func(err error) error {
		rec.err = err
		return fmt.Errorf("session %s: %w", rec.ref, err)
	}
	start := time.Now()
	var info server.SessionInfo
	if _, err := p.call(rec, "create", http.MethodPost, "/v1/sessions", body, &info); err != nil {
		return fail(err)
	}
	rec.id, rec.shards = info.ID, info.Shards
	loops := info.Loops
	for info.State != string(remp.SessionDone) {
		if len(info.Batch) == 0 {
			time.Sleep(pollInterval)
			p.mu.Lock()
			p.emptyPolls++
			p.mu.Unlock()
			ms, err := p.call(rec, "batch", http.MethodGet, "/v1/sessions/"+rec.id+"/batch", nil, &info)
			if err != nil {
				return fail(err)
			}
			p.after(ms, &loops, &info)
			continue
		}
		if rec.setup == 0 {
			rec.setup = time.Since(start).Seconds()
		}
		q := info.Batch[0]
		pr, err := session.ParseQuestionID(q.ID)
		if err != nil {
			return fail(err)
		}
		ans, err := json.Marshal(server.AnswersRequest{Answers: []server.AnswerDTO{{ID: q.ID, Labels: p.crowd.labels(pr, in.gold.IsMatch(pr))}}})
		if err != nil {
			return fail(err)
		}
		var resp server.AnswersResponse
		ms, err := p.call(rec, "answers", http.MethodPost, "/v1/sessions/"+rec.id+"/answers", ans, &resp)
		if err != nil {
			return fail(err)
		}
		if resp.Accepted != 1 {
			p.mu.Lock()
			p.failed++
			p.mu.Unlock()
			return fail(fmt.Errorf("answer %s rejected: %+v", q.ID, resp.Rejected))
		}
		rec.answers++
		p.mu.Lock()
		if p.posted[in.key] == nil {
			p.posted[in.key] = map[string]bool{}
		}
		p.posted[in.key][q.ID] = true
		p.mu.Unlock()
		info = resp.SessionInfo
		p.after(ms, &loops, &info)
	}
	if rec.setup == 0 {
		rec.setup = time.Since(start).Seconds()
	}
	if _, err := p.call(rec, "result", http.MethodGet, "/v1/sessions/"+rec.id+"/result", nil, &rec.dto); err != nil {
		return fail(err)
	}
	rec.dur = time.Since(start).Seconds()
	if rec.result, err = canonical(&rec.dto); err != nil {
		return fail(err)
	}
	// A requester that has its result forgets the session, so the
	// server's heap holds the sessions in flight, not the run's history.
	// The namespace's answer cache outlives its sessions.
	if _, err := p.call(rec, "delete", http.MethodDelete, "/v1/sessions/"+rec.id, nil, nil); err != nil {
		return fail(err)
	}
	rec.in = nil
	return nil
}

// check compares every finished session with its oracle, counting each
// session as one attempted operation.
func (p *phase) check(want map[string][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sessions {
		p.attempted++
		switch {
		case s.err != nil:
			p.failed++
		case !bytes.Equal(s.result, want[s.e.key()]):
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("session %s diverged from the oracle:\n  got  %s\n  want %s", s.ref, s.result, want[s.e.key()]))
		}
	}
}

// done returns the sessions that finished, in plan order.
func (p *phase) done() []*sessRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*sessRec, 0, len(p.sessions))
	for _, s := range p.sessions {
		if s.err == nil && s.result != nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}
