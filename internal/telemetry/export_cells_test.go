package telemetry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/runner"
	"lazyrc/internal/telemetry"
)

// TestExportOfRealCells holds Export to the encoding/json reference writer
// on the registries real cells collect — a fault-free one and a faulted
// one, whose transport adds the retransmission series — and holds
// runner.Exec's MetricsDigest to the SHA-256 of those bytes.
func TestExportOfRealCells(t *testing.T) {
	ev := exp.NewEvaluator(apps.Tiny, 16)
	for _, variant := range []string{"default", "storm"} {
		j := ev.Job(variant, "gauss", "lrc")
		app, err := apps.New(j.App, j.Scale)
		if err != nil {
			t.Fatal(err)
		}
		// 4096 cycles is the runner's sampling interval; a mismatch shows
		// as a digest mismatch below.
		m, err := apps.Run(j.Cfg, j.Proto, app, func(m *machine.Machine) { m.EnableMetrics(4096) })
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		var got, want bytes.Buffer
		if err := m.Tel.Export(&got); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.RefExport(m.Tel, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Export differs from encoding/json's bytes", variant)
		}
		if faulted := m.Tel.SeriesByName("net.retx") != nil; faulted != (variant == "storm") {
			t.Errorf("%s: net.retx series present = %v", variant, faulted)
		}
		sum := sha256.Sum256(got.Bytes())
		if d := runner.Exec(j).MetricsDigest; d != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: MetricsDigest %s is not the SHA-256 of the export", variant, d)
		}
	}
}
