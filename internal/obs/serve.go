package obs

import (
	"context"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// liveRec and liveLedger are the recorder and convergence ledger the metrics
// endpoint renders (Serve stores them; either may be nil). They are
// process-wide so the handlers need no per-server state.
var (
	liveRec    atomic.Pointer[Recorder]
	liveLedger atomic.Pointer[Ledger]
)

// Handler returns the metrics endpoint's mux: /metrics/prom (Prometheus text
// exposition of the live recorder and ledger), /debug/flight (the
// flight-recorder black box as JSON, on demand), /debug/pprof/* (the
// standard profiling endpoints: index, CPU profile windows, heap and the
// other runtime profiles, symbolization, execution traces), and /healthz.
// The pprof handlers are wired explicitly rather than via the net/http/pprof
// side effect on DefaultServeMux — the metrics endpoint owns its mux, and a
// CLI that never serves HTTP must not grow debug routes implicitly. Exposed
// separately from Serve so tests can drive it without a listener.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics/prom", promHandler)
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		Flight().WriteDump(w, "http")
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// MetricsServer is a running live-metrics endpoint. Close shuts it down
// cleanly: the listener stops accepting, in-flight requests get a grace
// period, and Close only returns once the server goroutine has exited — the
// fix for the old API, which returned the bare listener and leaked the
// http.Server (its keep-alive connections outlived every "shutdown").
type MetricsServer struct {
	ln      net.Listener
	srv     *http.Server
	close   sync.Once
	done    chan struct{}
	err     error
	sampler *RuntimeSampler
}

// Addr returns the bound address, usable with an OS-assigned ":0" port.
func (m *MetricsServer) Addr() net.Addr { return m.ln.Addr() }

// Close shuts the endpoint down and waits for the serve goroutine to exit.
// Safe to call more than once and from deferred paths.
func (m *MetricsServer) Close() error {
	m.close.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.err = m.srv.Shutdown(ctx)
		<-m.done
		m.sampler.Stop()
	})
	return m.err
}

// Serve registers r as the live recorder and l as the live ledger (either
// may be nil), then starts the metrics endpoint on addr (e.g.
// "localhost:8123", or "127.0.0.1:0" for an OS-assigned test port) in a
// background goroutine, along with the runtime sampler that feeds the
// Prometheus community_go_* series. The CLIs treat a bind failure as fatal
// flag misuse. Close stops both the server and the sampler.
func Serve(addr string, r *Recorder, l *Ledger) (*MetricsServer, error) {
	liveRec.Store(r)
	liveLedger.Store(l)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &MetricsServer{
		ln:      ln,
		srv:     &http.Server{Handler: Handler()},
		done:    make(chan struct{}),
		sampler: StartRuntimeSampler(DefaultRuntimeSamplePeriod),
	}
	go func() {
		defer close(m.done)
		m.srv.Serve(ln)
	}()
	return m, nil
}
