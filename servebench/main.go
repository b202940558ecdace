// Command servebench is the repository's benchmark: it drives an
// in-process remp-server over loopback HTTP with closed-loop clients
// that create sessions from generated inline KBs, answer every question
// with a simulated crowd and fetch the result, and it checks every
// session's result byte for byte against a synchronous remp.Resolve over
// the same inputs and labels.
//
// Usage:
//
//	servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of one untraced
// phase. With --trace 1 it runs the workload untraced, then traced (spans
// at the client, handler, store and cluster-socket boundaries, plus
// before/after deltas of the server's /metrics families), and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every operation succeeded and every session matched
// its oracle.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/remp"
)

// childEnv marks the process that does the work; the process the user
// starts only supervises it.
const childEnv = "SERVEBENCH_CHILD"

func main() {
	if os.Getenv(childEnv) == "" {
		os.Exit(supervise(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// supervise runs the benchmark in a child process and relays its output.
// A child that dies without printing a result (a runtime fatal error or
// an unrecovered panic in the server under test) still yields a result
// line: the run counts as one failed operation, so a crash shows up in
// failed_ops instead of as missing output.
func supervise(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	_, _ = io.Copy(io.Discard, out) // drain anything after an over-long line
	err = cmd.Wait()
	var res result
	if json.Unmarshal([]byte(last), &res) == nil && res.Metrics != nil {
		fmt.Fprintln(stdout, last)
		return cmd.ProcessState.ExitCode()
	}
	if last != "" {
		fmt.Fprintln(stdout, last)
	}
	code := cmd.ProcessState.ExitCode()
	if code == 2 || code < 0 {
		// Go exits 2 on a fatal error or panic; a negative code is a signal.
		fmt.Fprintf(stdout, "error: the benchmark process died (%v)\n", err)
		line, _ := json.Marshal(result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		fmt.Fprintln(stdout, string(line))
	}
	return 1
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale is the size of the mid scale-<n> dataset; the large one is
	// four times it. Tests shrink it.
	scale int
	// quality, when positive, replaces the workload's quality-session
	// count. Tests shrink it.
	quality int
	// tmp is where disk stores live.
	tmp string
	out io.Writer
	// tamper, when set, edits the oracle results before the check; the
	// test uses it to prove a single wrong byte fails the run.
	tamper func(map[string][]byte)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{out: stdout, scale: 5000}
	fs.StringVar(&cfg.workload, "workload", "", "workload: onboard, long-loop, durable-shared or cluster-rpc")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.IntVar(&cfg.seconds, "seconds", 10, "seconds each timed phase keeps starting sessions")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.tmp = os.Getenv("SERVEBENCH_TMP")
	if cfg.tmp == "" {
		cfg.tmp = ".bench_build/tmp"
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one invocation and returns its result. An error means the
// benchmark could not run at all (bad flags, unknown workload).
func bench(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	if cfg.quality > 0 {
		w.quality = cfg.quality
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	clients := min(runtime.NumCPU(), 2)
	in := &inputs{m: map[string]*input{}}
	// Each client's first input is generated before any timing; later
	// entries are generated by the client that takes them.
	for i := 0; i < min(w.quality, clients); i++ {
		if err := in.hold(w.entry(cfg.seed, i)); err != nil {
			return nil, err
		}
	}
	nonce := strconv.FormatInt(time.Now().UnixNano(), 36)
	phaseOf := func(tag string, workers int, tr *tracer) (*phase, error) {
		dir := ""
		if w.disk {
			dir = filepath.Join(cfg.tmp, "store-"+nonce+"-"+tag)
		}
		e, err := startEnv(w, workers, tr, dir)
		if err != nil {
			return nil, err
		}
		p := newPhase(w, cfg.seed, time.Duration(cfg.seconds)*time.Second, clients, nonce+"-"+tag, in, e, tr)
		if tr != nil {
			p.prom0, err = p.scrape()
		}
		if err == nil {
			p.run()
			if tr != nil {
				p.prom1, err = p.scrape()
			}
		}
		return p, errors.Join(err, e.close())
	}

	var phases []*phase
	var out map[string]metric
	if !cfg.trace {
		p, err := phaseOf("e2e", w.workers, nil)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	} else {
		for _, ph := range []struct {
			tag     string
			workers int
			tr      *tracer
		}{{"base", w.workers, nil}, {"traced", w.workers, newTracer()}, {"local", 0, newTracer()}} {
			if ph.tag == "local" && w.workers == 0 {
				continue
			}
			p, err := phaseOf(ph.tag, ph.workers, ph.tr)
			if err != nil {
				return nil, err
			}
			phases = append(phases, p)
		}
	}

	// Oracles run after every timed phase, once per distinct input.
	var used []entry
	seen := map[string]bool{}
	for _, p := range phases {
		for _, s := range p.done() {
			if k := s.e.key(); !seen[k] {
				seen[k] = true
				used = append(used, s.e)
			}
		}
	}
	want, oerr := oracles(used, in, crowd{seed: cfg.seed, errRate: w.workerError}, clients)
	if cfg.tamper != nil {
		cfg.tamper(want)
	}

	res := &result{Correct: oerr == nil}
	if oerr != nil {
		fmt.Fprintln(cfg.out, "oracle error:", oerr)
	}
	for _, p := range phases {
		p.check(want)
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintln(cfg.out, "error:", e)
		}
		if len(p.errs) > 0 || p.failed > 0 {
			res.Correct = false
		}
		if q := p.qualitySessions(); len(q) < w.quality {
			fmt.Fprintf(cfg.out, "error: only %d of the %d quality sessions finished\n", len(q), w.quality)
			res.Correct = false
		}
	}
	if !cfg.trace {
		out = endToEnd(phases[0], cfg.out)
	} else {
		out, err = perLayer(phases, in, cfg.out)
		if err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(cfg.out, "workload %s seed %d: %d sessions, failed_ops %d/%d\n", w.name, cfg.seed, len(phases[0].done()), res.Failed, res.Attempted)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "  %-32s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	res.Metrics = out
	return res, nil
}

// qualitySessions returns the finished sessions among the first
// w.quality plan entries.
func (p *phase) qualitySessions() []*sessRec {
	var q []*sessRec
	for _, s := range p.done() {
		if s.idx < p.w.quality {
			q = append(q, s)
		}
	}
	return q
}

// crowdQuestions counts the distinct questions the crowd answered for
// the quality sessions' inputs, and returns their mean F1.
func (p *phase) crowdQuestions() (questions, f1 float64) {
	q := p.qualitySessions()
	keys := map[string]bool{}
	for _, s := range q {
		if s.dto.PRF != nil {
			f1 += s.dto.PRF.F1
		}
		keys[s.e.key()] = true
	}
	p.mu.Lock()
	for k := range keys {
		questions += float64(len(p.posted[k]))
	}
	p.mu.Unlock()
	return questions, ratio(f1, float64(len(q)))
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, out io.Writer) map[string]metric {
	done := p.done()
	var setup, sess []float64
	answers := 0
	for _, s := range done {
		setup = append(setup, s.setup)
		sess = append(sess, s.dur)
		answers += s.answers
	}
	questions, f1 := p.crowdQuestions()
	ans := append([]float64(nil), p.ops["answers"]...)
	turn := append([]float64(nil), p.turnaround...)
	fmt.Fprintf(out, "turnaround_ms.tail is p%.0f of %d samples; answer_ms.p99 of %d samples\n", p.w.tail*100, len(turn), len(ans))
	return map[string]metric{
		"setup_s":            {median(setup), "s"},
		"session_s.p50":      {median(sess), "s"},
		"answers_per_s":      {ratio(float64(answers), p.elapsed.Seconds()), "1/s"},
		"answer_ms.p50":      {quantile(ans, 0.5), "ms"},
		"answer_ms.p99":      {quantile(ans, 0.99), "ms"},
		"turnaround_ms.p50":  {quantile(turn, 0.5), "ms"},
		"turnaround_ms.tail": {quantile(turn, p.w.tail), "ms"},
		"crowd_questions":    {questions, "count"},
		"f1":                 {f1, "ratio"},
		"cpu_s_per_session":  {ratio(p.cpuS, float64(len(done))), "s"},
		"heap_peak_mb":       {float64(p.heapPeak) / 1e6, "MB"},
	}
}

// scrape reads the server's /metrics JSON snapshot.
func (p *phase) scrape() (map[string]any, error) {
	req, err := http.NewRequest(http.MethodGet, p.env.base+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := p.roundTrip(req, &m); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return m, nil
}

// promValue reads a counter family from a snapshot, summing labeled
// children.
func promValue(m map[string]any, name string) float64 {
	switch v := m[name].(type) {
	case float64:
		return v
	case map[string]any:
		t := 0.0
		for _, x := range v {
			if f, ok := x.(float64); ok {
				t += f
			}
		}
		return t
	}
	return 0
}

// stageSeconds reads one loop stage's total from a snapshot.
func stageSeconds(m map[string]any, stage string) float64 {
	byStage, _ := m["remp_loop_stage_seconds"].(map[string]any)
	h, _ := byStage[stage].(map[string]any)
	s, _ := h["sum"].(float64)
	return s
}

// delta returns the change of a /metrics value over a phase.
func (p *phase) delta(read func(map[string]any) float64) float64 {
	return read(p.prom1) - read(p.prom0)
}

func counter(name string) func(map[string]any) float64 {
	return func(m map[string]any) float64 { return promValue(m, name) }
}

func stage(name string) func(map[string]any) float64 {
	return func(m map[string]any) float64 { return stageSeconds(m, name) }
}

// rpcMethods are the cluster RPCs a session issues (heartbeat pings are
// not counted).
var rpcMethods = []string{"prepare", "apply", "gather", "rank", "ball", "release", "end"}

// perLayer computes the per-layer metrics from the phases of a traced
// invocation: base (untraced), traced, and for a clustered workload the
// same sessions traced without the cluster.
func perLayer(phases []*phase, in *inputs, out io.Writer) (map[string]metric, error) {
	base, t := phases[0], phases[1]
	a := t.tr.analyze()
	done := t.done()
	n := float64(len(done))
	answers, deduced, selected, loops, shards := 0.0, 0.0, 0.0, 0.0, 0.0
	var sessS []float64
	for _, s := range done {
		answers += float64(s.answers)
		deduced += float64(s.dto.Deduced)
		selected += float64(s.dto.Questions + s.dto.Deduced)
		loops += float64(s.dto.Loops)
		shards += float64(s.shards)
		sessS = append(sessS, s.dur)
	}
	var baseS []float64
	for _, s := range base.done() {
		baseS = append(baseS, s.dur)
	}
	verts, edges, err := graphSizes(done, in)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	for _, r := range []string{"create", "batch", "answers", "result"} {
		m["server.handler_ms."+r] = metric{median(a.byName["server."+r]), "ms"}
	}
	m["server.transport_ms"] = metric{median(a.selfByPrefix("client.")), "ms"}

	prep, block, sim := t.delta(stage("prepare")), t.delta(stage("block")), t.delta(stage("similarity"))
	m["prepare.block_s"] = metric{ratio(block, n), "s"}
	m["prepare.similarity_s"] = metric{ratio(sim, n), "s"}
	m["prepare.other_s"] = metric{ratio(prep-block-sim, n), "s"}
	m["prepare.vertices"] = metric{ratio(verts, n), "count"}
	m["prepare.edges"] = metric{ratio(edges, n), "count"}
	m["prepare.shards"] = metric{ratio(shards, n), "count"}
	for _, st := range []string{"infer", "select", "apply", "reestimate"} {
		m["loop."+st+"_s"] = metric{ratio(t.delta(stage(st)), n), "s"}
	}
	m["loop.loops"] = metric{ratio(loops, n), "count"}
	m["engine.recomputes_per_answer"] = metric{ratio(t.delta(counter("remp_engine_recomputes_total")), answers), "1/answer"}
	m["engine.rebuilds"] = metric{ratio(t.delta(counter("remp_engine_rebuilds_total")), n), "1/session"}
	m["forest.finish_ms"] = metric{median(append([]float64(nil), t.finish...)), "ms"}

	appends := a.byName["store.append"]
	m["store.append_ms"] = metric{median(append([]float64(nil), appends...)), "ms"}
	m["store.fsync_ms"] = metric{histQuantile(t.tr.fsync, 0.5) * 1e3, "ms"}
	m["store.snapshot_ms"] = metric{median(a.byName["store.snapshot"]), "ms"}
	m["store.append_busy_s"] = metric{sum(appends) / 1e3, "s"}
	m["store.snapshots"] = metric{float64(len(a.byName["store.snapshot"])), "count"}
	m["store.bytes_per_answer"] = metric{ratio(float64(t.tr.storeBytes.Load()), float64(len(appends))), "B"}

	hits := t.delta(counter("remp_cache_hits_total"))
	m["session.cache_hit_ratio"] = metric{ratio(hits, hits+answers), "ratio"}
	m["session.empty_polls"] = metric{float64(t.emptyPolls), "count"}
	// In-loop deductions never reach the namespace store whose lookups
	// remp_deduce_hits_total counts, so hits are taken from the results.
	m["deduce.hits"] = metric{deduced, "count"}
	m["deduce.share"] = metric{ratio(deduced, selected), "ratio"}

	rpcs := 0
	for _, meth := range rpcMethods {
		d := a.byName["cluster.rpc."+meth]
		rpcs += len(d)
		m["cluster.rpc_ms."+meth] = metric{median(d), "ms"}
	}
	m["cluster.rpcs_per_answer"] = metric{ratio(float64(rpcs), answers), "1/answer"}
	m["cluster.bytes_per_answer"] = metric{ratio(float64(t.tr.rpcBytes.Load()), answers), "B"}
	m["cluster.retries"] = metric{t.delta(counter("remp_cluster_rpc_retries_total")), "count"}
	hop := 0.0
	if len(phases) > 2 && rpcs > 0 {
		hop = clusterHop(t, phases[2]) * 1e3 / float64(rpcs)
	}
	m["cluster.hop_ms"] = metric{hop, "ms"}

	m["gc.cpu_share"] = metric{ratio(t.gcCPUS, t.cpuS), "ratio"}
	m["alloc_mb_per_session"] = metric{ratio(t.allocB/1e6, n), "MB"}

	var unattributed []float64
	fmt.Fprintln(out, "reconciliation (ms): session = unattributed + transport + handler + store + rpc")
	for _, s := range done {
		tot := a.perSession[s.ref]
		if tot == nil {
			continue
		}
		var parts int64
		line := fmt.Sprintf("  %s session=%.3f", s.ref, float64(tot["session"])/1e6)
		for _, l := range layers {
			parts += tot[l]
			line += fmt.Sprintf(" %s=%.3f", l, float64(tot[l])/1e6)
		}
		fmt.Fprintf(out, "%s sum=%.3f\n", line, float64(parts)/1e6)
		if parts != tot["session"] {
			return nil, fmt.Errorf("session %s: layers sum to %dns, session took %dns", s.ref, parts, tot["session"])
		}
		unattributed = append(unattributed, float64(tot["unattributed"])/1e6)
	}
	m["unattributed_ms"] = metric{ratio(sum(unattributed), float64(len(unattributed))), "ms"}
	m["trace.overhead"] = metric{ratio(median(sessS), median(baseS)), "ratio"}
	return m, nil
}

// clusterHop returns how much longer, in seconds, the clustered traced
// sessions took than the same plan entries run without the cluster.
func clusterHop(clustered, local *phase) float64 {
	byIdx := map[int]float64{}
	for _, s := range local.done() {
		byIdx[s.idx] = s.dur
	}
	d := 0.0
	for _, s := range clustered.done() {
		if l, ok := byIdx[s.idx]; ok {
			d += s.dur - l
		}
	}
	return d
}

// graphSizes sums the ER-graph vertices and edges of the sessions'
// pipelines, preparing each distinct input once outside any timing.
func graphSizes(done []*sessRec, in *inputs) (verts, edges float64, err error) {
	type size struct{ v, e float64 }
	cache := map[string]size{}
	for _, s := range done {
		sz, ok := cache[s.e.key()]
		if !ok {
			data, gerr := in.get(s.e)
			if gerr != nil {
				return 0, 0, gerr
			}
			prep, perr := remp.PreparePipeline(remp.Dataset{K1: data.k1, K2: data.k2}, s.e.opts.ToOptions())
			if perr != nil {
				return 0, 0, perr
			}
			sz = size{float64(prep.Graph.NumVertices()), float64(prep.Graph.NumEdges())}
			cache[s.e.key()] = sz
		}
		verts += sz.v
		edges += sz.e
	}
	return verts, edges, nil
}
