package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Server is the opt-in HTTP endpoint. Routes:
//
//	/metrics  Prometheus text exposition format (version 0.0.4)
//	/snapshot the full JSON Snapshot (reporter's latest while it is
//	          current, else on demand)
//	/trace    the sampled tuple-lifecycle ring as JSON, oldest first
//	/healthz  liveness probe, "ok"
//
// Scrapes never touch engine locks: /metrics and /snapshot fold a fresh
// snapshot from atomics and channel-length probes, so the server keeps
// answering even when the pipeline is fully back-pressured.
type Server struct {
	ins *Instruments
	rep *Reporter // optional; /snapshot prefers its latest tick

	mu      sync.Mutex
	ln      net.Listener
	srv     *http.Server
	done    chan struct{}
	started bool
}

// NewServer returns a server over ins. rep may be nil; when set,
// /snapshot serves the reporter's latest published snapshot (with its
// delta fields) instead of folding a fresh one — unless probes were
// registered after that snapshot was folded (a run wiring its edges
// and workers after the reporter's first tick), when it folds a fresh
// one so the reply never omits a registered instrument.
func NewServer(ins *Instruments, rep *Reporter) *Server {
	return &Server{ins: ins, rep: rep}
}

// Start binds addr (host:port; ":0" picks a free port — read it back
// with Addr) and serves until Stop. Starting a started server is an
// error; a failed bind leaves the server stopped.
func (s *Server) Start(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("obs: server already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	s.ln, s.srv, s.done, s.started = ln, srv, done, true
	go func() {
		defer close(done)
		// Serve returns http.ErrServerClosed on graceful shutdown; any
		// other error means the listener died, which Stop tolerates.
		_ = srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address ("" before Start / after Stop).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stop closes the listener and waits for the serve goroutine to exit.
// Stopping a stopped (or never-started) server is a no-op.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	srv, done := s.srv, s.done
	s.ln = nil
	s.mu.Unlock()
	// Close rather than Shutdown: scrapes are cheap GETs, and a stop at
	// stream end must not hang behind a stalled client.
	_ = srv.Close()
	<-done
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.ins.Snapshot(time.Now()))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	var snap *Snapshot
	if s.rep != nil {
		snap = s.rep.Latest()
	}
	if snap == nil || snap.registered != s.ins.registrations() {
		snap = s.ins.Snapshot(time.Now())
	}
	writeJSON(w, snap)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	tr := s.ins.Trace()
	if tr == nil {
		http.Error(w, `{"error":"tracing disabled"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, struct {
		Recorded uint64       `json:"recorded"`
		Events   []TraceEvent `json:"events"`
	}{Recorded: tr.Recorded(), Events: tr.Events()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
