package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"gnbody/internal/partition"
)

// TestCheckReadRequest drives the BSP read-request decode with peer bytes:
// a well-formed list passes, and a ragged tail or a read ID outside the
// serving rank's partition is an error naming both ranks, not a panic.
func TestCheckReadRequest(t *testing.T) {
	pt, err := partition.BySize([]int{100, 100, 100, 100, 100, 100}, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{Part: pt}
	lo, hi := pt.Range(1)
	req := func(ids ...int) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		return b
	}
	if err := checkReadRequest(in, 1, 2, req(lo, hi-1)); err != nil {
		t.Fatalf("in-partition request rejected: %v", err)
	}
	if err := checkReadRequest(in, 1, 2, nil); err != nil {
		t.Fatalf("empty request rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		ids  []byte
		want string
	}{
		{"ragged", append(req(lo), 0xff), "rank 1: ragged request list from 2"},
		{"foreign", req(lo, lo-1), "rank 1: request from 2 for read 1 outside partition [2,4)"},
		{"past-end", req(1 << 31), "outside partition"},
	} {
		err := checkReadRequest(in, 1, 2, tc.ids)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
