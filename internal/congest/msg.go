package congest

import (
	"fmt"
	"math"
	"math/bits"
)

// Message is one CONGEST payload: at most two non-negative integer fields,
// each with the width in bits a real link would spend on it, plus a kind tag
// naming the payload's shape. The tag is simulator bookkeeping and costs no
// bits: Bits is exactly the sum of the two widths. Every message the
// paper's algorithms send fits this shape, so Message is a small value with
// no pointers — inbox and outbox buffers hold it inline, and sending one
// allocates nothing.
//
// Build messages with the constructors (Flag, NewInt, NewIntWidth, NewPair,
// NewMessage) and read them through the kind-checked accessors (Int, Pair)
// or Kind, A and B. Widths above 65535 bits saturate, which still exceeds
// any bandwidth budget a simulation can have in practice.
type Message struct {
	a, b   int64
	wa, wb uint16
	kind   Kind
}

// Kind tags the shape of a Message's payload. Inbox filters compare kinds
// the way a type switch would compare payload types. The set is closed and
// declared here so that every kind in one run is distinct, including the
// composite payloads the algorithm layers build with NewMessage.
type Kind uint8

const (
	KindNone    Kind = iota // the zero Message, what RecvFrom returns for nothing
	KindFlag                // a 1-bit signal (presence/absence, wave tokens)
	KindInt                 // one integer of explicit width
	KindPair                // two integers, e.g. an (id, value) report
	KindRankID              // a (rank, id) pair of the primitives' rank floods
	KindCandMin             // a (candidate, sample) pair of the primitives' vote floods
	// The weighted Phase-II gather items of internal/core: an edge {A, B},
	// or vertex A's weight B. The one tag bit telling them apart is charged
	// inside the first width.
	KindEdgeReport
	KindWeightReport
)

// NewMessage packs a two-field payload of the given kind and widths.
func NewMessage(kind Kind, a, b int64, widthA, widthB int) Message {
	return Message{a: a, b: b, wa: width16(widthA), wb: width16(widthB), kind: kind}
}

func width16(w int) uint16 { return uint16(min(max(w, 0), math.MaxUint16)) }

// Kind returns the payload's kind tag.
func (m Message) Kind() Kind { return m.kind }

// A returns the first field.
func (m Message) A() int64 { return m.a }

// B returns the second field.
func (m Message) B() int64 { return m.b }

// Bits returns the declared size on the wire: the sum of the field widths.
func (m Message) Bits() int { return int(m.wa) + int(m.wb) }

// Flag returns the 1-bit message.
func Flag() Message { return Message{wa: 1, kind: KindFlag} }

// NewInt packs v into its natural width (minimum 1 bit). v must be ≥ 0.
func NewInt(v int64) Message {
	w := bits.Len64(uint64(v))
	if w == 0 {
		w = 1
	}
	return Message{a: v, wa: uint16(w), kind: KindInt}
}

// NewIntWidth packs v with a fixed width, for protocols whose analysis
// charges a fixed field size (e.g. an id field of ⌈log₂ n⌉ bits).
func NewIntWidth(v int64, width int) Message {
	return Message{a: v, wa: width16(width), kind: KindInt}
}

// NewPair packs two values with id-width fields for a network of n nodes.
func NewPair(n int, a, b int64) Message {
	w := width16(IDBits(n))
	return Message{a: a, b: b, wa: w, wb: w, kind: KindPair}
}

// Int returns the value of a KindInt message. Any other kind is a protocol
// bug and panics, which the engine turns into the run's error.
func (m Message) Int() int64 {
	if m.kind != KindInt {
		m.wrongKind(KindInt)
	}
	return m.a
}

// Pair returns the fields of a KindPair message; other kinds panic like
// Int.
func (m Message) Pair() (a, b int64) {
	if m.kind != KindPair {
		m.wrongKind(KindPair)
	}
	return m.a, m.b
}

func (m Message) wrongKind(want Kind) {
	panic(fmt.Sprintf("congest: %v message read as %v", m.kind, want))
}
