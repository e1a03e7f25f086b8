package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
)

// NewServer binds the service to an HTTP mux. The surface:
//
//	GET    /healthz                     liveness probe (200 until the process dies)
//	GET    /readyz                      readiness probe (503 once draining)
//	GET    /metrics                     Prometheus text exposition
//	GET    /debug/pprof/...             runtime profiling
//	GET    /api/v1/stats                runner/store/bus counters
//	POST   /api/v1/compact              store compaction pass
//	POST   /api/v1/sweeps               submit an exp.Spec    → SweepStatus
//	GET    /api/v1/sweeps               list sweeps
//	GET    /api/v1/sweeps/{id}          one sweep's status
//	DELETE /api/v1/sweeps/{id}          cancel a sweep
//	GET    /api/v1/sweeps/{id}/cells    the sweep's cell key → fingerprint map
//	GET    /api/v1/sweeps/{id}/events   SSE: the sweep's job events + final status
//	GET    /api/v1/sweeps/{id}/report.json  stable report (finished sweeps)
//	GET    /api/v1/sweeps/{id}/report.html  HTML report (finished sweeps)
//	GET    /api/v1/jobs/{fp}            a stored result by fingerprint
//	GET    /api/v1/jobs/{fp}/trace      Perfetto trace (re-runs a sweep's cell traced)
//
// A sweep is the one unit of submission: a single simulation is the
// sweep whose only target is its cell key ({"targets":["default/gauss/lrc"]}).
// Submissions are deduplicated by content identity, so the API is safe
// to retry: re-POSTing a spec returns the existing record (200) instead
// of creating a duplicate (201). A body over maxBodyBytes is refused
// (413), as is one with a field exp.Spec does not have (400, naming it).
//
// Every response carries an X-Request-Id header (echoed from the
// request or generated), every request produces one structured log
// line, and every route reports into the service's metrics registry.
func NewServer(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	// Liveness and readiness are deliberately split: /healthz answers 200
	// for as long as the process can serve at all, while /readyz flips to
	// 503 the moment Drain begins, so load balancers pull the daemon out
	// of rotation before the listener closes.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.Handle("GET /metrics", s.reg.Handler())

	// pprof must be registered on this mux explicitly: the daemon serves
	// its own mux, not http.DefaultServeMux, so the package's init-time
	// registrations never apply.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("GET /api/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("POST /api/v1/compact", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Compact()
		answer(w, st, err)
	})

	mux.HandleFunc("POST /api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec exp.Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields() // a mistyped "seed" must not run as seed 0
		if err := dec.Decode(&spec); err != nil {
			httpError(w, fmt.Errorf("api: bad sweep spec: %w", err))
			return
		}
		st, created, err := s.SubmitSweep(r.Context(), spec)
		if err != nil {
			httpError(w, err)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, st)
	})

	mux.HandleFunc("GET /api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Sweeps())
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Sweep(r.PathValue("id"))
		answer(w, st, err)
	})

	mux.HandleFunc("DELETE /api/v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CancelSweep(r.PathValue("id")); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}/cells", func(w http.ResponseWriter, r *http.Request) {
		cells, err := s.SweepCells(r.PathValue("id"))
		answer(w, cells, err)
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveSweepEvents(s, w, r)
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}/report.json", func(w http.ResponseWriter, r *http.Request) {
		b, err := s.SweepReport(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}/report.html", func(w http.ResponseWriter, r *http.Request) {
		b, err := s.SweepHTML(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(b)
	})

	mux.HandleFunc("GET /api/v1/jobs/{fp}", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Job(r.PathValue("fp"))
		answer(w, res, err)
	})

	mux.HandleFunc("GET /api/v1/jobs/{fp}/trace", func(w http.ResponseWriter, r *http.Request) {
		serveTrace(s, w, r)
	})

	// The middleware labels each request with the mux's route pattern
	// ("GET /api/v1/sweeps/{id}"), not the raw path, so metric
	// cardinality stays bounded no matter what clients request.
	route := func(r *http.Request) string {
		if _, pattern := mux.Handler(r); pattern != "" {
			return pattern
		}
		return "unrouted"
	}
	return s.httpm.Middleware(mux, route, s.log)
}

// serveSweepEvents streams one sweep's job events (filtered from the
// bus by the sweep's cell fingerprints) and finishes with a "sweep"
// event carrying the terminal status. A subscriber arriving after the
// sweep finished receives just the terminal event.
func serveSweepEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, err := s.lookup(id)
	if err != nil {
		httpError(w, err)
		return
	}
	mine := func(ev runner.Event) bool { _, ok := sw.jobs[ev.FP]; return ok }
	fl, ok := sseStart(w)
	if !ok {
		return
	}
	// Subscribe before the first status read: events between the
	// snapshot and the subscription would otherwise be lost.
	sub := s.Subscribe(sseBuffer)
	defer sub.Close()

	st, err := s.Sweep(id)
	if err != nil {
		return
	}
	if err := sseEvent(w, fl, "status", st); err != nil {
		return
	}
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if !mine(ev) {
				continue
			}
			if err := sseEvent(w, fl, "job", ev); err != nil {
				return
			}
		case <-sw.done:
			// Drain what the bus already delivered, skipping other
			// sweeps' events rather than stopping at the first, then
			// finish with the terminal status.
		drain:
			for {
				select {
				case ev, ok := <-sub.C():
					if !ok {
						break drain
					}
					if mine(ev) {
						sseEvent(w, fl, "job", ev)
					}
				default:
					break drain
				}
			}
			if st, err := s.Sweep(id); err == nil {
				sseEvent(w, fl, "sweep", st)
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// serveTrace re-runs a cell some sweep names through the runner's
// execution body with span retention and writes the Perfetto trace,
// spans and counter tracks — the bytes lrcsim -spans-out writes for the
// cell. The observers are passive (results stay bit-identical), but
// retaining spans costs memory, so traces are produced on demand rather
// than stored.
func serveTrace(s *Service, w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	job, err := s.jobFor(fp)
	if err != nil {
		httpError(w, err)
		return
	}
	m, res := runner.ExecTraced(job, true)
	if m == nil {
		httpError(w, fmt.Errorf("api: trace run failed: %s", res.Failure))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fp[:min(16, len(fp))]+".perfetto.json"))
	if err := m.WritePerfetto(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

const sseBuffer = 1024

// maxBodyBytes bounds a request body: the largest legitimate one, a spec
// naming every target, application and a few hundred cells, is a few KB.
const maxBodyBytes = 1 << 20

// sseStart switches the response into SSE mode.
func sseStart(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "api: streaming unsupported", http.StatusInternalServerError)
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// sseEvent writes one named SSE event with a JSON payload.
func sseEvent(w http.ResponseWriter, fl http.Flusher, name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// answer writes what a service call returned: its value as JSON, or its
// error under the status httpError maps it to.
func answer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// writeJSON writes an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError maps service errors onto status codes.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}
