package api

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
)

// warmSpec is the i-th of 8,001 distinct sweeps over the cells of Figures
// 4 and 6 at tiny/64p, which also cover Tables 2 and 3 and Figures 5 and
// 7: a non-empty subset of those six targets and of the applications.
func warmSpec(i int) exp.Spec {
	spec := exp.Spec{Scale: "tiny", Procs: 64, Seed: 1}
	for b, t := range []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7"} {
		if (1+i%63)>>b&1 == 1 {
			spec.Targets = append(spec.Targets, t)
		}
	}
	for b, a := range exp.AppOrder {
		if (1+i/63%127)>>b&1 == 1 {
			spec.Apps = append(spec.Apps, a)
		}
	}
	return spec
}

// sweepThrough posts a sweep, waits for it and fetches both report forms.
func sweepThrough(tb testing.TB, c *Client, spec exp.Spec) SweepStatus {
	ctx := context.Background()
	st, err := c.SubmitSweep(ctx, spec)
	if err == nil {
		st, err = c.WaitSweep(ctx, st.ID, nil)
	}
	if err == nil {
		_, err = c.SweepReport(ctx, st.ID)
	}
	if err == nil {
		_, err = c.SweepHTML(ctx, st.ID)
	}
	if err != nil || st.State != StateDone {
		tb.Fatalf("sweep %v of %v: %+v, %v", spec.Targets, spec.Apps, st, err)
	}
	return st
}

// BenchmarkWarmSweep is one warm sweep, POST to both report forms, on a
// daemon restarted over a store that holds every cell it names: ns, bytes
// and objects per sweep, the in-process companion of the benchmark's
// sweep_warm. Each iteration posts a sweep no earlier one did. Compare
// builds at GOMAXPROCS=1 with -count.
func BenchmarkWarmSweep(b *testing.B) {
	dir := b.TempDir()
	fill := exp.Spec{Targets: []string{"fig4", "fig6"}, Scale: "tiny", Procs: 64, Seed: 1}
	d := startDaemon(b, dir, 2)
	sweepThrough(b, d.c, fill)
	d.stop(b)
	d = startDaemon(b, dir, 2)
	defer d.stop(b)
	sweepThrough(b, d.c, fill) // the boot's resurrection, finished
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if st := sweepThrough(b, d.c, warmSpec(i)); st.Executed != 0 {
			b.Fatalf("warm sweep %d simulated %d cells", i, st.Executed)
		}
	}
}

// awaitReport waits for a sweep to end and renders its report without
// any kept fragment: the bytes its fetch must serve. Nothing may have
// fetched the sweep yet.
func awaitReport(svc *Service, id string) (SweepStatus, []byte, error) {
	sw, err := svc.lookup(id)
	if err != nil {
		return SweepStatus{}, nil, err
	}
	<-sw.done
	var want bytes.Buffer
	err = exp.WriteReportJSON(&want, sw.rep)
	st, _ := svc.Sweep(id)
	return st, want.Bytes(), err
}

// TestCanceledFragmentIsNotServed: a sweep canceled after its first cell
// finished reports its canceled cells as such; the same cells submitted
// again under another identity run to completion, and its report serves
// their bytes, not a fragment of the canceled runs or of the normalized
// times they left.
func TestCanceledFragmentIsNotServed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := NewService(1, nil, nil)
	defer svc.Close(context.Background())
	sub := svc.Subscribe(1 << 10)
	spec := exp.Spec{Targets: []string{"fig4"}, Apps: []string{"fft", "gauss"}, Scale: "tiny", Procs: 4, Seed: 1}
	st, _, err := svc.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range sub.C() {
		if ev.Kind == runner.EventDone {
			break
		}
	}
	sub.Close()
	if err := svc.CancelSweep(st.ID); err != nil {
		t.Fatal(err)
	}
	if st, _, err = awaitReport(svc, st.ID); err != nil {
		t.Fatal(err)
	} else if st.State != StateCanceled {
		t.Skipf("the sweep ended %s before the cancel landed", st.State)
	}
	canceled, err := svc.SweepReport(st.ID)
	if err != nil || !bytes.Contains(canceled, []byte(`"verified": true`)) || !bytes.Contains(canceled, []byte(`"error": "canceled`)) {
		t.Fatalf("the canceled sweep's report holds no finished and canceled runs (%v):\n%s", err, canceled)
	}

	spec.Targets = append(spec.Targets, "default/gauss/sc") // the same cells
	again, _, err := svc.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	again, want, err := awaitReport(svc, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.SweepReport(again.ID)
	if err != nil || again.State != StateDone || bytes.Contains(got, []byte("canceled")) || !bytes.Equal(got, want) {
		t.Fatalf("the resubmitted cells (%s) served\n%s\n(%v), want\n%s", again.State, got, err, want)
	}
}

// TestConcurrentSweepsShareFragments: sweeps over overlapping cells,
// submitted and fetched at once, fill and read the shared fragments (and
// keyed jobs); each report is the bytes its own runs encode to, with or
// without an SC run to normalize by.
func TestConcurrentSweepsShareFragments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	svc := NewService(2, nil, nil)
	defer svc.Close(context.Background())
	var cells []string
	for _, app := range []string{"fft", "gauss"} {
		for _, proto := range []string{"sc", "erc", "lrc"} {
			cells = append(cells, "default/"+app+"/"+proto)
		}
	}
	spec := func(mask int) exp.Spec {
		s := exp.Spec{Scale: "tiny", Procs: 4, Seed: 1}
		for b, c := range cells {
			if mask>>b&1 == 1 {
				s.Targets = append(s.Targets, c)
			}
		}
		return s
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for mask := 63; mask > 47; mask-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, err := svc.SubmitSweep(context.Background(), spec(mask))
			if err != nil {
				errs <- err
				return
			}
			st, want, err := awaitReport(svc, st.ID)
			if err != nil {
				errs <- err
				return
			}
			if got, err := svc.SweepReport(st.ID); err != nil || st.State != StateDone || !bytes.Equal(got, want) {
				errs <- fmt.Errorf("cells %b (%s) served\n%s\n(%v), want\n%s", mask, st.State, got, err, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
