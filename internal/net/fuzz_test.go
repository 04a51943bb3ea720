package net

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzNetFrame drives the transport frame codec with arbitrary wire bytes
// (mirroring FuzzRingBuffer's role for the interconnect). Two oracles:
//
//   - Garbage safety: DecodeFrame must return an error — never panic, never
//     a frame — for any input that is not an exact encoding.
//   - Round trip: any input DecodeFrame accepts must re-encode to the exact
//     same bytes, and any frame built from fuzzed fields must survive
//     Encode -> Decode unchanged.
//
// The in-place forms the NIC path uses are held to the allocating ones:
// decodeInPlace accepts and rejects exactly what DecodeFrame does, with
// equal fields and payload, and appendFrame onto a non-empty prefix leaves
// the prefix intact and appends exactly EncodeFrame's bytes.
func FuzzNetFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(EncodeFrame(fr))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		var inPlace Frame
		if perr := decodeInPlace(data, &inPlace); (perr == nil) != (err == nil) {
			t.Fatalf("decodeInPlace error %v, DecodeFrame error %v", perr, err)
		}
		if err != nil {
			return // rejected garbage: exactly what the oracle wants
		}
		if !bytes.Equal(inPlace.Payload, fr.Payload) {
			t.Fatalf("decodeInPlace payload %x, DecodeFrame %x", inPlace.Payload, fr.Payload)
		}
		inPlace.Payload = fr.Payload
		if !reflect.DeepEqual(&inPlace, fr) {
			t.Fatalf("decodeInPlace fields %+v, DecodeFrame %+v", inPlace, *fr)
		}
		const prefix = "prefix"
		app := appendFrame(append(make([]byte, 0, len(prefix)+HeaderBytes), prefix...), fr)
		if string(app[:len(prefix)]) != prefix || !bytes.Equal(app[len(prefix):], data) {
			t.Fatalf("appendFrame onto a prefix = %x, want prefix + %x", app, data)
		}
		re := EncodeFrame(fr)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode->encode not identity:\n in  %x\n out %x", data, re)
		}
		fr2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(fr2, fr) {
			t.Fatalf("field round trip mismatch:\n got %+v\nwant %+v", fr2, fr)
		}
	})
}
