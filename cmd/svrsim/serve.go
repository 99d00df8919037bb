package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// cmdServe runs the multi-tenant grid service: the shared scheduler
// core behind an HTTP/JSON API (submit grids, stream per-cell results,
// poll/cancel/resume jobs), plus the /metrics and /debug observability
// surfaces. SIGINT/SIGTERM shuts down gracefully: running cells drain,
// the queue state is persisted, and the process exits 0. This drain is
// the only writer of the state file.
func cmdServe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "cell worker pool size (default GOMAXPROCS)")
	queueCap := fs.Int("queue", 0, "max queued cells across all jobs (default 4096)")
	stateF := fs.String("state", "svrsim-state.json", "queue-state file: restored on start, persisted on shutdown (empty disables)")
	journalF := fs.String("journal", "", "stream the scheduler lifecycle journal (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schedOpts.Workers = *workers
	schedOpts.QueueCap = *queueCap
	s := scheduler()

	// The server always captures the journal in memory (a bounded ring)
	// so GET /api/jobs/{id}/trace can render any recent job; -journal
	// additionally streams the full event stream to disk.
	jcfg := grid.JournalConfig{Capture: serveJournalRing}
	var jf *os.File
	if *journalF != "" {
		f, err := os.Create(*journalF)
		if err != nil {
			return err
		}
		jf = f
		jcfg.Writer = f
	}
	jn := grid.NewJournal(jcfg)
	grid.SetJournal(jn)
	defer func() {
		grid.SetJournal(nil)
		if err := jn.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: journal: %v\n", err)
		}
		if jf != nil {
			jf.Close()
		}
	}()

	if *stateF != "" {
		n, err := s.LoadState(*stateF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: restoring queue state: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(w, "svrsim: restored %d unfinished job(s) from %s\n", n, *stateF)
		}
	}

	mux := newServeMux(s)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Request contexts derive from serveCtx: canceling it unblocks every
	// streaming client during shutdown.
	serveCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	srv := &http.Server{
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return serveCtx },
	}
	fmt.Fprintf(w, "svrsim: serving on http://%s (POST /api/jobs, /api/status, /metrics)\n",
		ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(w, "svrsim: %s: draining running cells...\n", sig)
	}
	s.Shutdown()
	if *stateF != "" {
		if err := s.SaveState(*stateF); err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: persisting queue state: %v\n", err)
		} else {
			fmt.Fprintf(w, "svrsim: queue state saved to %s\n", *stateF)
		}
	}
	cancelRequests()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(w, "svrsim: shutdown complete")
	return nil
}

// serveJournalRing bounds the in-memory journal capture backing the
// GET /api/jobs/{id}/trace endpoint: enough for the recent jobs' full
// event streams without growing with server uptime.
const serveJournalRing = 1 << 16

// newServeMux assembles `svrsim serve`'s routes on a private ServeMux,
// never the process-global http.DefaultServeMux, so tests can build
// several in one process. GET /api/status is the one status document;
// the rest are the Prometheus, health and stdlib debug surfaces.
func newServeMux(s *grid.Scheduler) *http.ServeMux {
	// The artifact store's hit/miss/evict counters live in a metrics
	// registry, served in Prometheus text format on /metrics alongside
	// the scheduler's queue-wait and per-phase latency histograms.
	reg := metrics.New()
	sim.Artifacts().Register(reg, "artifact")

	mux := http.NewServeMux()
	mux.Handle("/api/", s.Handler())
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.Snapshot().WritePrometheus(w)
		s.MetricsSnapshot().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// The stdlib registers expvar and pprof only on DefaultServeMux;
	// mount them here by hand.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// cmdVersion prints the module version and build metadata.
func cmdVersion(w io.Writer) error {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return fmt.Errorf("version: build info unavailable")
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	fmt.Fprintf(w, "svrsim %s (%s, %s)\n", ver, bi.Main.Path, bi.GoVersion)
	var rev, modified, when string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		case "vcs.time":
			when = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		dirty := ""
		if modified == "true" {
			dirty = " (modified)"
		}
		fmt.Fprintf(w, "  commit %s%s %s\n", rev, dirty, when)
	}
	return nil
}
