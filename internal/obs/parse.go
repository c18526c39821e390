package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bmx/internal/addr"
)

// Reverse lookup tables for the NDJSON trace format: DumpJSON writes symbolic
// kind/class/msg names; the offline analyzer reads them back into the
// fixed-size Event so every in-process probe (HopTrail, CollectorAcquires,
// biography reconstruction) works unchanged on a file.

var (
	kindByName = func() map[string]Kind {
		m := make(map[string]Kind, len(kindNames))
		for k, name := range kindNames {
			if name != "" {
				m[name] = Kind(k)
			}
		}
		return m
	}()
	msgByName = func() map[string]MsgKind {
		m := make(map[string]MsgKind, len(msgNames))
		for k, name := range msgNames {
			m[name] = MsgKind(k)
		}
		return m
	}()
	opByName = func() map[string]SpanOp {
		m := make(map[string]SpanOp, len(opNames))
		for k, name := range opNames {
			if name != "" {
				m[name] = SpanOp(k)
			}
		}
		return m
	}()
)

func fromJSON(j eventJSON) (Event, error) {
	k, ok := kindByName[j.Kind]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", j.Kind)
	}
	e := Event{
		Seq: j.Seq, Tick: j.Tick, Node: addr.NodeID(j.Node), Kind: k,
		OID: addr.OID(j.OID), A: j.A, B: j.B,
		From: addr.NoNode, To: addr.NoNode,
		Trace: j.Trace, Span: j.Span, SParent: j.SParent,
	}
	if j.Op != "" {
		op, ok := opByName[j.Op]
		if !ok {
			return Event{}, fmt.Errorf("unknown span op %q", j.Op)
		}
		e.Op = op
	}
	switch j.Class {
	case "app":
		e.Class = ClassApp
	case "gc":
		e.Class = ClassGC
	case "-", "":
		e.Class = ClassNone
	default:
		return Event{}, fmt.Errorf("unknown event class %q", j.Class)
	}
	if j.Msg != "" {
		m, ok := msgByName[j.Msg]
		if !ok {
			m = MsgOther
		}
		e.Msg = m
	}
	if j.From != nil {
		e.From = addr.NodeID(*j.From)
	}
	if j.To != nil {
		e.To = addr.NodeID(*j.To)
	}
	if j.Crit {
		e.Flags |= FlagCritical
	}
	if j.Owned {
		e.Flags |= FlagOwned
	}
	if j.Group {
		e.Flags |= FlagGroup
	}
	return e, nil
}

// ReadEventsNDJSONLoose extracts the event stream from mixed output: any
// line that parses as a complete event object is kept, everything else
// (report headers, histogram dumps, counters) is skipped. This is what lets
// bmxstat consume a raw `bmxd -trace-json` capture, not just a clean
// /events download.
func ReadEventsNDJSONLoose(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) < 2 || line[0] != '{' || line[len(line)-1] != '}' {
			continue
		}
		var j eventJSON
		if err := json.Unmarshal(line, &j); err != nil || j.Kind == "" {
			continue
		}
		e, err := fromJSON(j)
		if err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
