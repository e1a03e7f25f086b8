package api

import (
	"fmt"
	"html"
	"net/http"
	"strings"
	"time"

	"lazyrc/internal/obs"
	"lazyrc/internal/telemetry"
)

// serveOps renders the live operational dashboard: a self-contained,
// auto-refreshing HTML page built from the same registry snapshot
// /metrics exposes, plus the sweep registry. It reuses the telemetry
// report shell (CSS, cards, tables) so the ops page and the simulation
// reports read as one product; the data underneath is strictly the
// wall-clock plane.
func serveOps(s *Service, w http.ResponseWriter) {
	snap := indexSnapshot(s.reg.Snapshot())

	doc := telemetry.NewHTMLDoc("lrcsimd ops",
		"live daemon state · reloads every 5 s · scrape /metrics for history")
	doc.SetRefresh(5)

	// Service card: identity and the liveness/readiness story at a glance.
	ready := "ready"
	if s.Draining() {
		ready = "DRAINING (readyz → 503)"
	}
	doc.Section("Service", telemetry.MetaTable([][2]string{
		{"build", s.build.String()},
		{"uptime", time.Since(s.start).Truncate(time.Second).String()},
		{"workers", fmt.Sprintf("%d", s.rn.Pool().Workers)},
		{"readiness", ready},
	}))

	doc.Section("HTTP", opsHTTPTable(snap))
	doc.Section("Pool & jobs", opsPoolTable(s, snap))
	doc.Section("Event bus", opsBusTable(s))
	if s.st != nil {
		doc.Section("Store", opsStoreTable(s))
	}
	doc.Section("Recent sweeps", opsSweepsTable(s))

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	doc.Render(w)
}

// indexSnapshot keys a registry snapshot by family name.
func indexSnapshot(fams []obs.Family) map[string]obs.Family {
	m := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		m[f.Name] = f
	}
	return m
}

// labelValue returns the value of the named label in a sample.
func labelValue(sm obs.Sample, name string) string {
	for _, l := range sm.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// opsHTTPTable renders the per-route traffic table: request counts by
// status class, in-flight, and latency quantiles from the wall-clock
// histograms.
func opsHTTPTable(snap map[string]obs.Family) string {
	type row struct {
		total, err4, err5   float64
		inflight            float64
		mean, p50, p95, p99 float64 // milliseconds
	}
	rows := map[string]*row{}
	get := func(route string) *row {
		r, ok := rows[route]
		if !ok {
			r = &row{}
			rows[route] = r
		}
		return r
	}
	var order []string
	for _, sm := range snap["lrcsimd_http_requests_total"].Samples {
		route := labelValue(sm, "route")
		if _, seen := rows[route]; !seen {
			order = append(order, route)
		}
		r := get(route)
		r.total += sm.Value
		switch labelValue(sm, "code") {
		case "4xx":
			r.err4 += sm.Value
		case "5xx":
			r.err5 += sm.Value
		}
	}
	for _, sm := range snap["lrcsimd_http_in_flight_requests"].Samples {
		get(labelValue(sm, "route")).inflight = sm.Value
	}
	for _, sm := range snap["lrcsimd_http_request_duration_seconds"].Samples {
		r := get(labelValue(sm, "route"))
		if sm.Count > 0 {
			r.mean = sm.Sum / float64(sm.Count) * 1000
		}
		r.p50 = obs.Quantile(sm.Buckets, 0.50) * 1000
		r.p95 = obs.Quantile(sm.Buckets, 0.95) * 1000
		r.p99 = obs.Quantile(sm.Buckets, 0.99) * 1000
	}
	if len(order) == 0 {
		return `<p class="meta">no requests yet</p>`
	}
	var b strings.Builder
	b.WriteString("<table><tr><th>route</th><th>requests</th><th>4xx</th><th>5xx</th><th>in flight</th><th>mean ms</th><th>p50</th><th>p95</th><th>p99</th></tr>\n")
	for _, route := range order {
		r := rows[route]
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%.0f</td><td>%.0f</td><td>%.0f</td><td>%.0f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td></tr>\n",
			html.EscapeString(route), r.total, r.err4, r.err5, r.inflight,
			r.mean, r.p50, r.p95, r.p99)
	}
	b.WriteString("</table>\n")
	return b.String()
}

// opsPoolTable renders worker-pool occupancy and the job lifecycle
// counters folded from the runner's event stream.
func opsPoolTable(s *Service, snap map[string]obs.Family) string {
	pool := s.rn.Pool()
	kinds := map[string]float64{}
	for _, sm := range snap["lrcsimd_jobs_total"].Samples {
		kinds[labelValue(sm, "kind")] = sm.Value
	}
	// Live simulation speed: the per-(app, proto) heartbeat gauges summed
	// over currently running jobs (terminal jobs zero their gauge).
	var speed float64
	for _, sm := range snap["lrcsimd_sim_cycles_per_second"].Samples {
		speed += sm.Value
	}
	return telemetry.MetaTable([][2]string{
		{"running / workers", fmt.Sprintf("%d / %d", pool.Running, pool.Workers)},
		{"queued", fmt.Sprintf("%d", pool.Queued)},
		{"live sim speed", fmt.Sprintf("%.2f Mcycles/s", speed/1e6)},
		{"executed (fresh simulations)", fmt.Sprintf("%.0f", kinds["executed"])},
		{"cache hits (persistent store)", fmt.Sprintf("%.0f", kinds["cache_hit"])},
		{"deduped (in-process)", fmt.Sprintf("%.0f", kinds["deduped"])},
		{"done / failed / canceled", fmt.Sprintf("%.0f / %.0f / %.0f", kinds["done"], kinds["failed"], kinds["canceled"])},
	})
}

// opsBusTable renders the event bus: aggregate counters plus the
// per-subscriber attribution (who is slow, who is losing events).
func opsBusTable(s *Service) string {
	st := s.b.Stats()
	var b strings.Builder
	b.WriteString(telemetry.MetaTable([][2]string{
		{"subscribers", fmt.Sprintf("%d", st.Subscribers)},
		{"published", fmt.Sprintf("%d", st.Published)},
		{"delivered", fmt.Sprintf("%d", st.Delivered)},
		{"dropped", fmt.Sprintf("%d", st.Dropped)},
	}))
	if len(st.Subs) > 0 {
		b.WriteString("<table><tr><th>subscriber</th><th>buffered</th><th>cap</th><th>delivered</th><th>dropped</th></tr>\n")
		for _, sub := range st.Subs {
			fmt.Fprintf(&b, "<tr><td>#%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
				sub.ID, sub.Buffered, sub.Cap, sub.Delivered, sub.Dropped)
		}
		b.WriteString("</table>\n")
	}
	return b.String()
}

// opsStoreTable renders the persistent store's health, including the
// dead-byte ratio a compaction pass would reclaim.
func opsStoreTable(s *Service) string {
	st := s.st.Stats()
	return telemetry.MetaTable([][2]string{
		{"segments / entries", fmt.Sprintf("%d / %d", st.Segments, st.Entries)},
		{"live bytes", fmt.Sprintf("%d", st.LiveBytes)},
		{"dead bytes", fmt.Sprintf("%d (%.0f%% of file)", st.DeadBytes(), st.DeadRatio()*100)},
		{"appends / lookups / misses", fmt.Sprintf("%d / %d / %d", st.Appends, st.Lookups, st.Misses)},
		{"compactions", fmt.Sprintf("%d", st.Compactions)},
		{"corrupt lines dropped", fmt.Sprintf("%d", st.DroppedLines)},
	})
}

// opsSweepsTable renders the most recent sweeps, newest first.
func opsSweepsTable(s *Service) string {
	sweeps := s.Sweeps()
	if len(sweeps) == 0 {
		return `<p class="meta">no sweeps submitted</p>`
	}
	const maxRows = 10
	var b strings.Builder
	b.WriteString("<table><tr><th>sweep</th><th>state</th><th>cells</th><th>completed</th><th>executed</th><th>cached</th><th>deduped</th><th>failed</th><th>wall</th><th>speed</th></tr>\n")
	shown := 0
	for i := len(sweeps) - 1; i >= 0 && shown < maxRows; i-- {
		sw := sweeps[i]
		id := sw.ID
		if len(id) > 16 {
			id = id[:16]
		}
		wall, speed := "—", "—"
		if sw.Terminal() {
			wall = (time.Duration(sw.WallMS) * time.Millisecond).String()
			if sw.CyclesPerSec > 0 {
				speed = fmt.Sprintf("%.2f Mcyc/s", sw.CyclesPerSec/1e6)
			}
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(id), html.EscapeString(sw.State),
			sw.Jobs, sw.Completed, sw.Executed, sw.FromCache, sw.Deduped, sw.Failed,
			wall, speed)
		shown++
	}
	b.WriteString("</table>\n")
	if len(sweeps) > maxRows {
		fmt.Fprintf(&b, `<p class="meta">%d older sweeps not shown</p>`+"\n", len(sweeps)-maxRows)
	}
	return b.String()
}
