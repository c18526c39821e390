package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"bmx/internal/addr"
	"bmx/internal/obs/heat"
)

// The telemetry stream: every offline and live readout of a run — a bmxd
// -trace-out file, the /events, /spans, /series and /heat endpoints — is
// one NDJSON vocabulary. Each line is one JSON object whose "rec" field
// tags it with a kind from a closed set; the rest of the object is that
// kind's payload. WriteStream is its only writer and ReadStream its only
// reader, which fails on a line it cannot parse or whose tag it does not
// know rather than skipping it.

// RecKind tags one stream line. The set is closed: ReadStream rejects any
// tag outside it.
type RecKind uint8

// Record kinds.
const (
	RecEvent  RecKind = iota + 1 // a flight-recorder Event
	RecHeat                      // a heat.Row: one access cell or a bare ownership mark
	RecSample                    // a time-series Sample
	RecHist                      // a HistSummary: one histogram at the end of the run
	recEnd
)

var recNames = [...]string{RecEvent: "event", RecHeat: "heat", RecSample: "sample", RecHist: "hist"}

// Valid reports whether k is one of the record kinds.
func (k RecKind) Valid() bool { return k >= RecEvent && k < recEnd }

// String names the kind as its stream tag.
func (k RecKind) String() string {
	if k.Valid() {
		return recNames[k]
	}
	return fmt.Sprintf("rec(%d)", uint8(k))
}

// Stream is the content of a telemetry stream: one slice per record kind,
// each in stream order.
type Stream struct {
	Events  []Event
	Heat    []heat.Row
	Samples []Sample
	Hists   []HistSummary
}

// WriteStream writes s as NDJSON, one record per line: the events, then
// the heat rows, the samples and the histogram summaries. A producer
// serving one kind passes a Stream holding only that kind.
func WriteStream(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	if err := errors.Join(putRecs(bw, RecEvent, s.Events), putRecs(bw, RecHeat, s.Heat),
		putRecs(bw, RecSample, s.Samples), putRecs(bw, RecHist, s.Hists)); err != nil {
		return err
	}
	return bw.Flush()
}

// putRecs writes each of recs as one line tagged k. Every payload has a
// field that is never omitted, so its JSON is never "{}" and the tag
// splices in as the first field.
func putRecs[T any](bw *bufio.Writer, k RecKind, recs []T) error {
	for _, v := range recs {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, `{"rec":%q,%s`+"\n", k, b[1:])
	}
	return nil
}

// maxReportedLines bounds how many bad lines one ReadStream error names.
const maxReportedLines = 10

// ReadStream parses a telemetry stream. Every line must be a record of a
// known kind: a malformed line, an unknown tag or an event naming an
// unknown kind, class, message or span op is an error naming the line.
// Reading goes on past a bad line, so the error names every bad line (the
// first maxReportedLines of them); the records that did parse are
// returned with it.
func ReadStream(r io.Reader) (Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var s Stream
	var errs []error
	bad := 0
	for n := 1; sc.Scan(); n++ {
		if err := s.decode(sc.Bytes()); err != nil {
			if bad++; bad <= maxReportedLines {
				errs = append(errs, fmt.Errorf("line %d: %w", n, err))
			}
		}
	}
	if bad > maxReportedLines {
		errs = append(errs, fmt.Errorf("and %d more bad lines", bad-maxReportedLines))
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, err)
	}
	return s, errors.Join(errs...)
}

// decode appends the record on one line to s.
func (s *Stream) decode(line []byte) error {
	var tag struct {
		Rec string `json:"rec"`
	}
	if err := json.Unmarshal(line, &tag); err != nil {
		return err
	}
	switch recByName[tag.Rec] {
	case RecEvent:
		return appendRec(line, &s.Events)
	case RecHeat:
		return appendRec(line, &s.Heat)
	case RecSample:
		return appendRec(line, &s.Samples)
	case RecHist:
		return appendRec(line, &s.Hists)
	}
	return fmt.Errorf("unknown record kind %q", tag.Rec)
}

// appendRec decodes one record's payload onto dst.
func appendRec[T any](line []byte, dst *[]T) error {
	var v T
	if err := json.Unmarshal(line, &v); err != nil {
		return err
	}
	*dst = append(*dst, v)
	return nil
}

// eventJSON is the JSON form of an Event, the payload of an event record:
// symbolic kind, class, message and op, NoNode peers omitted.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	Tick  uint64 `json:"tick"`
	Node  int32  `json:"node"`
	Kind  string `json:"kind"`
	Class string `json:"class"`
	Msg   string `json:"msg,omitempty"`
	OID   uint64 `json:"oid,omitempty"`
	From  *int32 `json:"from,omitempty"`
	To    *int32 `json:"to,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Crit  bool   `json:"crit,omitempty"`
	Owned bool   `json:"owned,omitempty"`
	Group bool   `json:"group,omitempty"`

	Trace   uint64 `json:"trace,omitempty"`
	Span    uint64 `json:"span,omitempty"`
	SParent uint64 `json:"parent,omitempty"`
	Op      string `json:"op,omitempty"`
}

// MarshalJSON writes the event as an event record's payload.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Seq: e.Seq, Tick: e.Tick, Node: int32(e.Node),
		Kind: e.Kind.String(), Class: e.Class.String(),
		OID: uint64(e.OID), A: e.A, B: e.B,
		Crit: e.Critical(), Owned: e.Owned(), Group: e.Flags&FlagGroup != 0,
		Trace: e.Trace, Span: e.Span, SParent: e.SParent,
	}
	if e.Op != OpNone {
		j.Op = e.Op.String()
	}
	if e.Msg != MsgNone {
		j.Msg = e.Msg.String()
	}
	if e.Kind.hasPeers() {
		if e.From != addr.NoNode {
			v := int32(e.From)
			j.From = &v
		}
		if e.To != addr.NoNode {
			v := int32(e.To)
			j.To = &v
		}
	}
	return json.Marshal(j)
}

// Reverse lookups of the symbolic names the stream carries.
var (
	recByName   = indexNames[RecKind](recNames[:])
	kindByName  = indexNames[Kind](kindNames[:])
	msgByName   = indexNames[MsgKind](msgNames[:])
	opByName    = indexNames[SpanOp](opNames[:])
	classByName = map[string]Class{"app": ClassApp, "gc": ClassGC, "-": ClassNone}
)

func indexNames[T ~uint8](names []string) map[string]T {
	m := make(map[string]T, len(names))
	for i, name := range names {
		if name != "" {
			m[name] = T(i)
		}
	}
	return m
}

// UnmarshalJSON reads an event record's payload.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*e = Event{
		Seq: j.Seq, Tick: j.Tick, Node: addr.NodeID(j.Node),
		OID: addr.OID(j.OID), A: j.A, B: j.B,
		From: addr.NoNode, To: addr.NoNode,
		Trace: j.Trace, Span: j.Span, SParent: j.SParent,
	}
	var ok bool
	if e.Kind, ok = kindByName[j.Kind]; !ok {
		return fmt.Errorf("unknown event kind %q", j.Kind)
	}
	if e.Class, ok = classByName[j.Class]; !ok {
		return fmt.Errorf("unknown event class %q", j.Class)
	}
	if j.Msg != "" {
		if e.Msg, ok = msgByName[j.Msg]; !ok {
			return fmt.Errorf("unknown message kind %q", j.Msg)
		}
	}
	if j.Op != "" {
		if e.Op, ok = opByName[j.Op]; !ok {
			return fmt.Errorf("unknown span op %q", j.Op)
		}
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
	return nil
}
