package hbshm_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/hbfile"
	"repro/hbshm"
)

// region builds a region of size bytes whose header is valid, claims
// capacity slots and has published seq 1; offsets are the ring layout
// hbfile's package doc describes.
func region(size int, capacity uint32) []byte {
	mem := make([]byte, size)
	copy(mem, hbfile.Magic)
	binary.LittleEndian.PutUint32(mem[8:], hbfile.Version)
	binary.LittleEndian.PutUint32(mem[12:], hbfile.RecordSize)
	binary.LittleEndian.PutUint32(mem[16:], capacity)
	binary.LittleEndian.PutUint32(mem[20:], 10) // window
	binary.LittleEndian.PutUint64(mem[56:], 1)  // cursor
	return mem
}

// Mapping arbitrary bytes as a shared-memory region must fail cleanly or
// yield a reader whose every read is well-behaved: observers map regions
// owned by other processes. Seeds: a 128-byte region claiming 2^28 and
// 2^32-1 slots, a one-slot region whose target version word was left odd
// by a writer that died mid-update, and a region in the retired HBSHMv1
// layout, which Open refuses by its magic.
func FuzzOpenArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(hbfile.Magic))
	f.Add(make([]byte, hbfile.HeaderSize))
	f.Add(region(hbfile.HeaderSize, 1<<28))
	f.Add(region(hbfile.HeaderSize, 1<<32-1))
	odd := region(hbfile.HeaderSize+hbfile.RecordSize, 1)
	binary.LittleEndian.PutUint64(odd[32:], 3)  // target version, odd for good
	binary.LittleEndian.PutUint64(odd[128:], 1) // slot 0 holds seq 1
	f.Add(odd)
	old := region(hbfile.HeaderSize+8*hbfile.RecordSize, 0)
	copy(old, "HBSHMv1\x00")
	binary.LittleEndian.PutUint64(old[16:], 8) // HBSHMv1's 64-bit capacity
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.shm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := hbshm.Open(path)
		if err != nil {
			return
		}
		defer r.Close()
		if recs, cur, err := r.ReadSinceInto(0, 0, nil); err == nil {
			for _, rec := range recs {
				if rec.Seq == 0 || rec.Seq > cur {
					t.Fatalf("ReadSinceInto delivered seq %d under cursor %d", rec.Seq, cur)
				}
			}
		}
		_, _, _, _ = r.Target()
		_, _, _ = r.Rate(0)
	})
}
