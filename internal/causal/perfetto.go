package causal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Perfetto export: the retained span store rendered as Chrome
// trace-event JSON (the legacy format ui.perfetto.dev and
// chrome://tracing both load). Layout:
//
//   - one process per node (pid = node index) with four thread tracks:
//     cpu (stall slices), pp (directory / fan-out / ack / remote-notice
//     occupancy), bus (fill streaming), mem (memory-module occupancy).
//     Occupancy slices draw only the service window — queueing is in
//     args — so FIFO resources render as clean non-overlapping slices.
//   - transactions and sync episodes are async events (ph b/e, id =
//     TID), which trace viewers place on per-id tracks, because a
//     processor can have several write transactions in flight at once.
//   - every message is an async net event plus a flow-event pair
//     (ph s at the send on the source node, ph f at the delivery on the
//     destination) so cross-node causality draws as arrows.
//
// Timestamps are simulated cycles written as microseconds; absolute
// wall-time is meaningless in a simulator, so 1 cycle renders as 1 us.

// traceEvent is one JSON trace event. Fields follow the Chrome
// trace-event format spec.
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   uint64                 `json:"ts"`
	Dur  *uint64                `json:"dur,omitempty"`
	Pid  int64                  `json:"pid"`
	Tid  int64                  `json:"tid"`
	ID   string                 `json:"id,omitempty"`
	BP   string                 `json:"bp,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Thread-track ids within each node's process.
const (
	laneCPU = 0
	lanePP  = 1
	laneBus = 2
	laneMem = 3
)

var laneNames = map[int64]string{
	laneCPU: "cpu",
	lanePP:  "pp",
	laneBus: "bus",
	laneMem: "mem",
}

// WritePerfetto renders the tracer's retained spans as trace-event JSON.
// msgKindName labels net spans with the protocol message mnemonic (nil:
// numeric kinds). Only retaining tracers can export; a digest-only or
// nil tracer writes an empty trace.
func WritePerfetto(w io.Writer, t *Tracer, msgKindName func(int) string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
		raw, _ := json.Marshal(ev)
		bw.Write(raw)
	}

	if t != nil {
		seenLane := make(map[[2]int64]bool)
		meta := func(pid, tid int64) {
			key := [2]int64{pid, tid}
			if seenLane[key] {
				return
			}
			seenLane[key] = true
			if !seenLane[[2]int64{pid, -1}] {
				seenLane[[2]int64{pid, -1}] = true
				emit(traceEvent{
					Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
					Args: map[string]interface{}{"name": fmt.Sprintf("node%d", pid)},
				})
			}
			emit(traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]interface{}{
					"name": laneNames[tid],
				},
			})
			emit(traceEvent{
				Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]interface{}{"sort_index": tid},
			})
		}

		kindLabel := func(k int) string {
			if msgKindName != nil {
				return msgKindName(k)
			}
			return fmt.Sprintf("msg%d", k)
		}

		for i := range t.spans {
			s := &t.spans[i]
			pid := int64(s.Node)
			switch s.Kind {
			case KindTxn, KindSync:
				meta(pid, laneCPU)
				name := fmt.Sprintf("%s %s", s.Kind, s.Why)
				args := map[string]interface{}{"tid": s.TID}
				if s.Kind == KindTxn {
					args["block"] = fmt.Sprintf("%#x", s.Block)
				} else {
					args["obj"] = s.Obj
				}
				id := fmt.Sprintf("t%d", s.TID)
				emit(traceEvent{Name: name, Cat: "txn", Ph: "b", Ts: s.Begin,
					Pid: pid, Tid: laneCPU, ID: id, Args: args})
				emit(traceEvent{Name: name, Cat: "txn", Ph: "e", Ts: s.End,
					Pid: pid, Tid: laneCPU, ID: id})

			case KindStall:
				meta(pid, laneCPU)
				dur := s.Dur()
				emit(traceEvent{
					Name: fmt.Sprintf("stall(%s) %s", s.Class, s.Why),
					Cat:  "stall", Ph: "X", Ts: s.Begin, Dur: &dur,
					Pid: pid, Tid: laneCPU,
					Args: map[string]interface{}{"tid": s.TID, "cause": s.Cause},
				})

			case KindNet:
				// Async flight on the source node plus a flow pair for
				// the cross-node arrow.
				meta(pid, laneCPU)
				meta(int64(s.Peer), laneCPU)
				name := kindLabel(int(s.MsgKind))
				id := fmt.Sprintf("n%d", s.ID)
				args := map[string]interface{}{
					"tid": s.TID, "dst": s.Peer,
					"out_wait": s.Wait, "in_wait": s.Wait2,
				}
				if s.Block != 0 {
					args["block"] = fmt.Sprintf("%#x", s.Block)
				}
				emit(traceEvent{Name: name, Cat: "net", Ph: "b", Ts: s.Begin,
					Pid: pid, Tid: laneCPU, ID: id, Args: args})
				emit(traceEvent{Name: name, Cat: "net", Ph: "e", Ts: s.End,
					Pid: pid, Tid: laneCPU, ID: id})
				emit(traceEvent{Name: name, Cat: "flow", Ph: "s", Ts: s.Begin,
					Pid: pid, Tid: laneCPU, ID: id})
				emit(traceEvent{Name: name, Cat: "flow", Ph: "f", BP: "e",
					Ts: s.End, Pid: int64(s.Peer), Tid: laneCPU, ID: id})

			case KindRetx:
				// Retransmission wait: the whole window is lost time (Wait
				// carries the attempt number, not queueing).
				meta(pid, laneCPU)
				dur := s.Dur()
				args := map[string]interface{}{
					"tid": s.TID, "dst": s.Peer, "attempt": s.Wait,
				}
				if s.Block != 0 {
					args["block"] = fmt.Sprintf("%#x", s.Block)
				}
				emit(traceEvent{
					Name: fmt.Sprintf("retx %s", kindLabel(int(s.MsgKind))),
					Cat:  "retx", Ph: "X", Ts: s.Begin, Dur: &dur,
					Pid: pid, Tid: laneCPU, Args: args,
				})

			default:
				// Service occupancy: draw the service window only.
				lane := int64(lanePP)
				switch s.Kind {
				case KindBus:
					lane = laneBus
				case KindMem:
					lane = laneMem
				}
				meta(pid, lane)
				start := s.Begin + s.Wait
				if start > s.End {
					start = s.End
				}
				dur := s.End - start
				args := map[string]interface{}{"tid": s.TID, "wait": s.Wait}
				if s.Block != 0 {
					args["block"] = fmt.Sprintf("%#x", s.Block)
				}
				if s.Peer >= 0 {
					args["peer"] = s.Peer
				}
				emit(traceEvent{
					Name: s.Kind.String(), Cat: "svc", Ph: "X",
					Ts: start, Dur: &dur, Pid: pid, Tid: lane, Args: args,
				})
			}
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateTrace checks data against a minimal trace-event schema: a JSON
// object whose traceEvents member is an array of events, each carrying a
// known phase, a name, numeric pid/tid, a non-negative ts on timed
// phases, a non-negative dur on complete events, and an id on
// async/flow events. It returns the event count on success.
func ValidateTrace(data []byte) (int, error) {
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		return 0, fmt.Errorf("trace is not a JSON object: %w", err)
	}
	if top.TraceEvents == nil {
		return 0, fmt.Errorf("trace has no traceEvents array")
	}
	for i, raw := range top.TraceEvents {
		var ev struct {
			Name *string  `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *float64 `json:"pid"`
			Tid  *float64 `json:"tid"`
			ID   string   `json:"id"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("event %d: %w", i, err)
		}
		if ev.Name == nil || *ev.Name == "" {
			return 0, fmt.Errorf("event %d: missing name", i)
		}
		if ev.Pid == nil || ev.Tid == nil {
			return 0, fmt.Errorf("event %d (%s): missing pid/tid", i, *ev.Name)
		}
		switch ev.Ph {
		case "M":
			// Metadata: no timestamp required.
		case "X":
			if ev.Ts == nil || *ev.Ts < 0 {
				return 0, fmt.Errorf("event %d (%s): complete event needs ts >= 0", i, *ev.Name)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return 0, fmt.Errorf("event %d (%s): complete event needs dur >= 0", i, *ev.Name)
			}
		case "b", "e", "s", "f":
			if ev.Ts == nil || *ev.Ts < 0 {
				return 0, fmt.Errorf("event %d (%s): %s event needs ts >= 0", i, *ev.Name, ev.Ph)
			}
			if ev.ID == "" {
				return 0, fmt.Errorf("event %d (%s): %s event needs an id", i, *ev.Name, ev.Ph)
			}
		default:
			return 0, fmt.Errorf("event %d (%s): unknown phase %q", i, *ev.Name, ev.Ph)
		}
	}
	return len(top.TraceEvents), nil
}
