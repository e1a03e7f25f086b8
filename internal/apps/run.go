package apps

import (
	"fmt"

	"lazyrc/internal/config"
	"lazyrc/internal/machine"
)

// Run is the one path from a cell to a finished machine: it builds the
// machine, hands it to each attach function in turn (observers —
// EnableMetrics, EnableSpans, EnablePerf — and guards such as the
// invariant auditor or a watchdog, in any order), then runs the
// application's Setup, Worker and Verify. Every attachment is passive,
// so the simulated run is identical with and without them. When metrics
// were attached the registry's "app" meta entry is stamped here, so
// every tool's export — and digest — carries it the same way.
//
// A nil machine means construction failed; otherwise the machine is
// returned for statistics harvesting even when verification fails.
func Run(cfg config.Config, protoName string, app App, attach ...func(*machine.Machine)) (*machine.Machine, error) {
	m, err := machine.New(cfg, protoName)
	if err != nil {
		return nil, fmt.Errorf("apps: %w", err)
	}
	for _, a := range attach {
		a(m)
	}
	m.Tel.SetMeta("app", app.Name())
	app.Setup(m)
	m.Run(app.Worker)
	return m, app.Verify()
}
