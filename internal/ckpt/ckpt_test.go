package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSnapshot(epoch int) *Snapshot {
	s := &Snapshot{
		Fingerprint: 0xDEADBEEFCAFE,
		Epoch:       epoch,
		RNG:         []uint64{0x1234 << 7, 0x1235 << 7},
		Step:        epoch,
	}
	for e := 1; e <= epoch; e++ {
		s.History = append(s.History, EpochRecord{Epoch: e, Loss: 1.0 / float64(e), Millis: float64(10 * e)})
	}
	for p := 0; p < 3; p++ {
		rows, cols := 2+p, 3
		n := rows * cols
		ps := ParamState{Name: fmt.Sprintf("p%d", p), Rows: rows, Cols: cols,
			M: make([]float32, n), V: make([]float32, n)}
		for i := 0; i < n; i++ {
			ps.Value = append(ps.Value, float32(i)*0.25+float32(epoch))
			if p != 2 { // one param deliberately never stepped: zero moments
				ps.M[i], ps.V[i] = float32(i)*0.5, float32(i)*0.125
			}
		}
		s.Params = append(s.Params, ps)
	}
	return s
}

func encoded(t testing.TB, s *Snapshot) []byte {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot(7)
	got, err := Decode(bytes.NewReader(encoded(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestEncodeRejectsMisshapedMoments(t *testing.T) {
	s := testSnapshot(1)
	s.Params[1].V = s.Params[1].V[1:]
	if err := s.Encode(io.Discard); err == nil {
		t.Fatal("encoded a parameter whose second moment is one value short")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	clean := encoded(t, testSnapshot(3))

	// Flip one bit somewhere in the body: the CRC must catch it.
	for _, pos := range []int{8, len(clean) / 2, len(clean) - 5} {
		bad := append([]byte(nil), clean...)
		bad[pos] ^= 0x40
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("decode accepted a snapshot with bit %d flipped", pos)
		}
	}
	// Truncation at any point must fail, not panic.
	for _, n := range []int{0, 3, 10, len(clean) - 1} {
		if _, err := Decode(bytes.NewReader(clean[:n])); err == nil {
			t.Fatalf("decode accepted a snapshot truncated to %d bytes", n)
		}
	}
}

// TestDecodeRejectsOtherVersions: a file in the old version-1 layout (one
// copy of the model per worker) and a future version both fail on the
// version check, not deeper in the body.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	for _, v := range []byte{1, 99} {
		data := encoded(t, testSnapshot(1))
		data[4] = v // version field
		// Recompute the CRC so only the version check can reject it.
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		_, err := Decode(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot version %d", v)) {
			t.Fatalf("version %d: got %v, want an unsupported-version error", v, err)
		}
	}
}

func TestStoreSaveLoadLatest(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s, err := st.LoadLatest(); err != nil || s != nil {
		t.Fatalf("empty store: got (%v, %v), want (nil, nil)", s, err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || !reflect.DeepEqual(got, testSnapshot(3)) {
		t.Fatalf("LoadLatest returned epoch %d, want 3", got.Epoch)
	}
}

func epochsOf(entries []Entry) []int {
	var out []int
	for _, e := range entries {
		out = append(out, e.Epoch)
	}
	return out
}

func TestStoreRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 5; epoch++ {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if got := epochsOf(entries); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("retained epochs %v, want [3 4 5]", got)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*.nsck"))
	if len(files) != retain {
		t.Fatalf("retained %d snapshot files, want %d: %v", len(files), retain, files)
	}
	// Re-saving an epoch already in the store replaces it, not duplicates.
	if _, err := st.Save(testSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	entries, _ = st.Entries()
	if got := epochsOf(entries); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("after re-save: epochs %v, want [3 4 5]", got)
	}

	// Rotation never removes the file just written, even when it is the
	// lowest epoch: 10, 15, 20, then 5 drops 10 alone.
	st, err = OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []int{10, 15, 20, 5} {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ = st.Entries()
	if got := epochsOf(entries); !reflect.DeepEqual(got, []int{5, 15, 20}) {
		t.Fatalf("10, 15, 20, 5 retained epochs %v, want [5 15 20]", got)
	}
	if got, err := st.LoadLatest(); err != nil || got.Epoch != 20 {
		t.Fatalf("LoadLatest after saving 5 last: got %v, %v, want epoch 20", got, err)
	}
}

// TestStoreFindsSnapshotPublishedBeforeCrash: a snapshot is live from the
// moment its rename lands. A file placed straight into the directory is the
// state a crash right after Save's rename leaves behind.
func TestStoreFindsSnapshotPublishedBeforeCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 2; epoch++ {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-00000003.nsck"), encoded(t, testSnapshot(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 {
		t.Fatalf("LoadLatest returned epoch %d, want the published epoch 3", got.Epoch)
	}
}

// TestStoreIgnoresForeignNames: only the names Save writes are snapshots.
// Temp files, non-canonical names, directories and an older build's
// MANIFEST are neither listed nor rotated away.
func TestStoreIgnoresForeignNames(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string]string{
		"MANIFEST":         "epoch=9 file=../evil.nsck\n",
		".tmp-snap-123":    "torn",
		"snap-7.nsck":      "not canonical",
		"snap-00000008.ns": "wrong suffix",
		"snap-x.nsck":      "no epoch",
	}
	for name, body := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "snap-00000009.nsck"), 0o755); err != nil {
		t.Fatal(err)
	}
	if s, err := st.LoadLatest(); err != nil || s != nil {
		t.Fatalf("store of foreign names: got (%v, %v), want (nil, nil)", s, err)
	}
	for epoch := 1; epoch <= 4; epoch++ {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if got := epochsOf(entries); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("listed epochs %v, want [2 3 4]", got)
	}
	for name, body := range foreign {
		if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(data) != body {
			t.Fatalf("foreign file %s touched: %q, %v", name, data, err)
		}
	}
}

func TestStoreSurvivesLostNewestFile(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 2; epoch++ {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	// The newest file vanished (deleted or lost with its disk block).
	if err := os.Remove(filepath.Join(dir, "snap-00000002.nsck")); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 {
		t.Fatalf("degraded load returned epoch %d, want 1", got.Epoch)
	}
}

// TestStoreLoadLatestSkipsCorruptNewest: a torn newest file falls back to
// the entry before it; with every entry corrupt, the newest one's error.
func TestStoreLoadLatestSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := st.Save(testSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	tear := func(epoch int) {
		path := filepath.Join(dir, fmt.Sprintf("snap-%08d.nsck", epoch))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tear(3)
	got, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testSnapshot(2)) {
		t.Fatalf("LoadLatest returned epoch %d, want the intact epoch 2", got.Epoch)
	}
	tear(2)
	tear(1)
	if _, err := st.LoadLatest(); err == nil || !strings.Contains(err.Error(), "snap-00000003.nsck") {
		t.Fatalf("all entries corrupt: got %v, want the newest entry's error", err)
	}
}

func TestSaverCadence(t *testing.T) {
	var nilSaver *Saver
	if nilSaver.Due(1) {
		t.Fatal("nil saver claims to be due")
	}
	s := &Saver{Store: &Store{dir: "x"}, Every: 5}
	for epoch, want := range map[int]bool{1: false, 4: false, 5: true, 10: true, 11: false} {
		if s.Due(epoch) != want {
			t.Fatalf("Every=5: Due(%d) = %v, want %v", epoch, s.Due(epoch), want)
		}
	}
	s.Every = 0
	if !s.Due(1) || !s.Due(2) {
		t.Fatal("Every=0 should snapshot every epoch")
	}
}

// FuzzDecode feeds Decode arbitrary bodies sealed with their correct CRC,
// so the fuzzer reaches the length and bounds checks past the checksum.
// Decode must never panic, and whatever it accepts must re-encode to the
// same bytes (the reserved header field aside).
func FuzzDecode(f *testing.F) {
	clean := encoded(f, testSnapshot(2))
	f.Add(clean[:len(clean)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := encoded(t, s)
		want := append([]byte(nil), body...)
		want[6], want[7] = 0, 0
		if !bytes.Equal(out[:len(out)-4], want) {
			t.Fatalf("accepted body re-encodes to %d different bytes", len(out)-4)
		}
	})
}
