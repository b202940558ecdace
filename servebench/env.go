package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/session"
)

// env is one in-process remp-server served on loopback, with its
// optional cluster workers. In a traced phase the handler, the store
// and every worker socket are wrapped by the tracer.
type env struct {
	base    string
	srv     *server.Server
	hs      *http.Server
	served  chan error
	workers []*cluster.Worker
	wserved []chan error
	proxies []*proxy
	dir     string
}

// startEnv brings up a server for w with nworkers cluster workers. dir
// holds the disk store of a disk workload; tr is nil when untraced.
func startEnv(w *workload, nworkers int, tr *tracer, dir string) (e *env, err error) {
	e = &env{dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	var store session.Store
	if w.disk {
		ds, derr := session.NewDiskStore(dir)
		if derr != nil {
			return e, fmt.Errorf("disk store: %w", derr)
		}
		if tr != nil {
			ds.InstrumentFsync(tr.clock, tr.fsync)
		}
		store = ds
	}
	if tr != nil {
		if store == nil {
			store = session.NewMemStore()
		}
		store = &tracedStore{Store: store, t: tr}
	}
	var addrs []string
	for i := 0; i < nworkers; i++ {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return e, lerr
		}
		wk := cluster.NewWorker(cluster.WorkerConfig{Prepare: server.PrepareSpec})
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		e.workers = append(e.workers, wk)
		e.wserved = append(e.wserved, done)
		addr := ln.Addr().String()
		if tr != nil {
			px, perr := startProxy(addr, tr)
			if perr != nil {
				return e, perr
			}
			e.proxies = append(e.proxies, px)
			addr = px.ln.Addr().String()
		}
		addrs = append(addrs, addr)
	}
	srv, _, err := server.NewServer(server.Config{Store: store, Workers: addrs})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return e, fmt.Errorf("server: %w", err)
	}
	e.srv = srv
	h := srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the HTTP server, the session server, the workers and the
// proxies, waits for their goroutines and removes the store directory.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if e.hs != nil {
		errs = append(errs, e.hs.Shutdown(ctx))
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Shutdown(ctx))
	}
	for i, wk := range e.workers {
		errs = append(errs, wk.Close(), <-e.wserved[i])
	}
	for _, px := range e.proxies {
		px.close()
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}
