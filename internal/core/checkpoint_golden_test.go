package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// goldenSections are the SHA-256 digests of the checkpoint sections
// trainedSystem exports, recorded on amd64 before dialect feature
// records existed. Records are rebuilt on restore and never persisted,
// so the on-disk bytes must not move. The models section gob-encodes
// maps, whose order varies from run to run; it is compared through a
// canonical digest of its content instead (the re-ranker network's
// gob, which holds no maps, and the encoder's embeddings of fixed
// probes).
var goldenSections = map[string]string{
	core.SectionPool:         "18f1e1b50cdfb9fbe2f5250a23a5772ca970486ba7e341d36a5629b64710d439",
	core.SectionVecs:         "c69f6cf84b5d37732d4854f8c6a6c145a310ead85274832ca1798dd79c299e01",
	core.SectionStats:        "2919596912a7b3ffc3bfb1fa89e6e725e7c6a1ea6f15f83bc779af8d1cf2eed0",
	core.SectionModels + "~": "9e552e8601fa5a913bca90698e1050a4b2c134e22f150e4c5e78d3ea59b7e4c2",
}

// modelsDigest is the canonical content digest of a models section.
func modelsDigest(t *testing.T, data []byte) string {
	t.Helper()
	m, err := core.LoadModels(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(m.Reranker.Net); err != nil {
		t.Fatal(err)
	}
	for _, probe := range checkpointQuestions {
		for _, x := range m.Encoder.Encode(probe) {
			_ = binary.Write(h, binary.BigEndian, math.Float32bits(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCheckpointSectionsGolden pins the checkpoint format of a fixed
// build: the same four sections in the same order, byte for byte.
func TestCheckpointSectionsGolden(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	_, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	got := map[string]string{}
	for _, s := range sections {
		names = append(names, s.Name)
		sum := sha256.Sum256(s.Data)
		got[s.Name] = hex.EncodeToString(sum[:])
		if s.Name == core.SectionModels {
			got[s.Name+"~"] = modelsDigest(t, s.Data)
		}
	}
	want := []string{core.SectionPool, core.SectionVecs, core.SectionModels, core.SectionStats}
	if len(names) != len(want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sections %v, want %v", names, want)
		}
	}
	if runtime.GOARCH != "amd64" {
		// Go fuses multiply-adds on other architectures, so trained
		// weights and embeddings differ in their last bits there.
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	for name, digest := range goldenSections {
		if got[name] != digest {
			t.Errorf("section %s digest %s, want %s", name, got[name], digest)
		}
	}
}
