package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"sync"

	"repro/internal/core"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Prepare turns an opaque session spec (as shipped by the
	// coordinator's prepare RPC) into the prepared pipeline the shard
	// states are built from. The worker caches the result per spec hash,
	// so one expensive Prepare backs every shard of a session — and every
	// session with the same spec.
	Prepare func(spec []byte) (*core.Prepared, error)
	// Logger, when non-nil, receives diagnostic log records.
	Logger *slog.Logger
	// Faults injects failures for chaos drills; CrashAfterRPCs is the
	// worker-side fault (the worker tears itself down after handling N
	// non-ping requests, simulating a SIGKILL).
	Faults *Faults
}

// shardKey addresses one shard of one runner (a runner is one Loop's
// lifetime, named by the coordinator).
type shardKey struct {
	runner string
	shard  int
}

// workerShard is one assigned shard's engine state plus the replication
// watermark. The mutex serializes command application with reads; the
// coordinator already serializes per-shard traffic, but duplicated
// frames and re-prepares may race the tail of a previous request.
type workerShard struct {
	mu      sync.Mutex
	st      *core.ShardState
	applied int
}

// prepEntry caches one spec's Prepared, including a failed build: every
// shard of a broken spec fails fast instead of re-running Prepare.
type prepEntry struct {
	once sync.Once
	p    *core.Prepared
	err  error
}

// Worker hosts assigned shards' engine states and serves the cluster RPC
// protocol on a listener. One goroutine per connection handles requests
// sequentially; distinct shards are safe to drive from distinct
// connections concurrently.
type Worker struct {
	cfg WorkerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	prepMu sync.Mutex
	preps  map[string]*prepEntry

	shardMu sync.Mutex
	shards  map[shardKey]*workerShard
}

// NewWorker builds a Worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{
		cfg:    cfg,
		conns:  map[net.Conn]struct{}{},
		preps:  map[string]*prepEntry{},
		shards: map[shardKey]*workerShard{},
	}
}

func (w *Worker) log(msg string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Info(msg, args...)
	}
}

// Serve accepts connections on ln until the worker is closed. It returns
// nil after Close (or a crash fault); any other accept error is returned.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return nil
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go w.serveConn(conn)
	}
}

// Close tears the worker down: the listener and every connection are
// closed and all shard state is dropped, exactly what a SIGKILL does
// minus process exit. Safe to call more than once.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	w.shardMu.Lock()
	w.shards = map[shardKey]*workerShard{}
	w.shardMu.Unlock()
	return nil
}

func (w *Worker) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	for {
		env, err := ReadFrame(conn)
		if err != nil {
			return // EOF, torn connection, or garbage: the client retries
		}
		if env.Kind != FrameRequest {
			continue
		}
		if env.Method != MethodPing && w.cfg.Faults.crashDue() {
			w.log("cluster worker: crash fault tripped, tearing down")
			w.Close()
			return
		}
		body, errKind, err := w.handle(env.Method, env.Body)
		res := Envelope{V: ProtocolVersion, ID: env.ID, Kind: FrameResponse}
		if err != nil {
			res.Err, res.ErrKind = err.Error(), errKind
		} else {
			res.Body = body
		}
		if err := WriteFrame(conn, res); err != nil {
			return
		}
	}
}

// handle dispatches one request. A panic in a handler (a malformed
// request reaching engine code) is converted to an error response so one
// bad frame cannot take the worker down.
func (w *Worker) handle(method string, body json.RawMessage) (res json.RawMessage, errKind string, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, errKind, err = nil, "", fmt.Errorf("cluster worker: %s panicked: %v", method, r)
		}
	}()
	switch method {
	case MethodPing:
		return json.RawMessage(`{}`), "", nil
	case MethodPrepare:
		var req prepareReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, "", fmt.Errorf("cluster worker: bad prepare body: %w", err)
		}
		return w.handlePrepare(req)
	case MethodApply, MethodGather, MethodBall, MethodRelease:
		var req shardReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, "", fmt.Errorf("cluster worker: bad %s body: %w", method, err)
		}
		return w.handleShard(method, req)
	case MethodEnd:
		var req endReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, "", fmt.Errorf("cluster worker: bad end body: %w", err)
		}
		w.shardMu.Lock()
		for k := range w.shards {
			if k.runner == req.Runner {
				delete(w.shards, k)
			}
		}
		w.shardMu.Unlock()
		return json.RawMessage(`{}`), "", nil
	default:
		return nil, "", fmt.Errorf("cluster worker: unknown method %q", method)
	}
}

// prepared returns the cached pipeline for a spec, building it once.
func (w *Worker) prepared(hash string, spec []byte) (*core.Prepared, error) {
	w.prepMu.Lock()
	e, ok := w.preps[hash]
	if !ok {
		e = &prepEntry{}
		w.preps[hash] = e
	}
	w.prepMu.Unlock()
	e.once.Do(func() {
		if sum := sha256.Sum256(spec); hex.EncodeToString(sum[:]) != hash {
			e.err = fmt.Errorf("cluster worker: spec hash mismatch")
			return
		}
		if w.cfg.Prepare == nil {
			e.err = fmt.Errorf("cluster worker: no Prepare hook configured")
			return
		}
		e.p, e.err = w.cfg.Prepare(spec)
	})
	return e.p, e.err
}

func (w *Worker) handlePrepare(req prepareReq) (json.RawMessage, string, error) {
	p, err := w.prepared(req.SpecHash, req.Spec)
	if err != nil {
		return nil, "", err
	}
	if req.Shard < 0 || req.Shard >= p.NumShards() {
		return nil, "", fmt.Errorf("cluster worker: shard %d out of range (%d shards)", req.Shard, p.NumShards())
	}
	ws := &workerShard{st: p.NewShardState(req.Shard)}
	w.shardMu.Lock()
	// A re-prepare (the coordinator replaying a lost shard, or retrying a
	// timed-out prepare) replaces any previous state wholesale: the
	// replayed log rebuilds it from sequence 1.
	w.shards[shardKey{req.Runner, req.Shard}] = ws
	w.shardMu.Unlock()
	w.log("cluster worker: prepared shard", "runner", req.Runner, "shard", req.Shard)
	return mustMarshal(shardRes{Applied: 0}), "", nil
}

func (w *Worker) handleShard(method string, req shardReq) (json.RawMessage, string, error) {
	w.shardMu.Lock()
	ws, ok := w.shards[shardKey{req.Runner, req.Shard}]
	w.shardMu.Unlock()
	if !ok {
		return nil, ErrKindState, fmt.Errorf("cluster worker: no state for runner %s shard %d", req.Runner, req.Shard)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.apply(req.Cmds); err != nil {
		return nil, "", err
	}
	res := shardRes{Applied: ws.applied}
	switch method {
	case MethodApply:
	case MethodGather:
		res.Cands, res.AnyProp = ws.st.Gather()
	case MethodBall:
		res.Ball = ws.st.Ball(req.Pair)
	case MethodRelease:
		ws.st.Release()
	}
	return mustMarshal(res), "", nil
}

// apply executes the piggybacked command tail, deduplicating by the
// watermark: a command at or below applied was already executed (the
// frame was duplicated or replayed) and is skipped; a gap means the
// coordinator and worker disagree about history and is an error.
func (ws *workerShard) apply(cmds []Cmd) error {
	for _, c := range cmds {
		if c.Seq <= ws.applied {
			continue
		}
		if c.Seq != ws.applied+1 {
			return fmt.Errorf("cluster worker: command gap: have %d, got seq %d", ws.applied, c.Seq)
		}
		switch c.Op {
		case OpResolve:
			ws.st.Resolve(c.Pair, c.Detach)
		case OpHard:
			ws.st.MarkHard(c.Pair)
		case OpSync:
			ws.st.Sync()
		case OpInvalidate:
			ws.st.Invalidate()
		case OpRebuild:
			ws.st.Rebuild(decodeEstimates(c.Est))
		default:
			return fmt.Errorf("cluster worker: unknown op %q at seq %d", c.Op, c.Seq)
		}
		ws.applied = c.Seq
	}
	return nil
}

// mustMarshal encodes a response DTO; the DTOs marshal by construction.
func mustMarshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// SpecHash computes the cache key the coordinator stamps on prepare
// requests for a spec.
func SpecHash(spec []byte) string {
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}
