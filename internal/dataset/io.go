package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// On-disk dataset layout (plain text, one dataset per directory):
//
//	meta.txt      key=value lines: name, classes, hidden
//	graph.txt     first line "<V> <E>", then one "src dst" pair per line
//	features.txt  V lines of space-separated float32 values
//	labels.txt    V lines: "<label> <split>" with split ∈ {train,val,test}
//
// The format trades compactness for inspectability — these are research
// datasets, and being able to grep them matters more than disk bytes.

// Save writes the dataset into dir (created if absent).
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeMeta(filepath.Join(dir, "meta.txt"), d); err != nil {
		return err
	}
	if err := writeGraph(filepath.Join(dir, "graph.txt"), d.Graph); err != nil {
		return err
	}
	if err := writeFeatures(filepath.Join(dir, "features.txt"), d.Features); err != nil {
		return err
	}
	return writeLabels(filepath.Join(dir, "labels.txt"), d)
}

// LoadDir reads a dataset previously written by Save (or hand-authored in
// the same format).
func LoadDir(dir string) (*Dataset, error) {
	d := &Dataset{}
	if err := readMeta(filepath.Join(dir, "meta.txt"), d); err != nil {
		return nil, err
	}
	g, err := readGraph(filepath.Join(dir, "graph.txt"))
	if err != nil {
		return nil, err
	}
	d.Graph = g
	d.Spec.Vertices = g.NumVertices()
	if g.NumVertices() > 0 {
		d.Spec.AvgDegree = float64(g.NumEdges()) / float64(g.NumVertices())
	}
	ftr, err := readFeatures(filepath.Join(dir, "features.txt"), g.NumVertices())
	if err != nil {
		return nil, err
	}
	d.Features = ftr
	d.Spec.FeatureDim = ftr.Cols()
	if err := readLabels(filepath.Join(dir, "labels.txt"), d); err != nil {
		return nil, err
	}
	return d, nil
}

func writeMeta(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = fmt.Fprintf(f, "name=%s\nclasses=%d\nhidden=%d\n",
		d.Spec.Name, d.Spec.NumClasses, d.Spec.HiddenDim)
	return err
}

func readMeta(path string, d *Dataset) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("dataset: bad meta line %q", line)
		}
		switch k {
		case "name":
			d.Spec.Name = v
		case "classes":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("dataset: bad classes %q", v)
			}
			d.Spec.NumClasses = n
		case "hidden":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("dataset: bad hidden %q", v)
			}
			d.Spec.HiddenDim = n
		default:
			return fmt.Errorf("dataset: unknown meta key %q", k)
		}
	}
	return sc.Err()
}

// maxTextVertices bounds the vertex count a graph.txt header may declare.
// The graph builder allocates O(V) index arrays before any edge is read, so
// without a bound a one-line hostile header commands gigabytes; the limit is
// far above any dataset this text format is meant for.
const maxTextVertices = 1 << 20

// preallocEdgeCap bounds how much capacity the decoder reserves from the
// declared edge count alone. Larger graphs still load — the slice grows as
// real edge lines arrive — but a header cannot command an allocation the
// body never backs.
const preallocEdgeCap = 1 << 16

func encodeGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
	}
	return bw.Flush()
}

// decodeGraph parses the graph.txt wire form. Arbitrary input must come back
// as an error, never a panic or an allocation proportional to a number the
// input merely claims (FuzzGraphRoundTrip enforces this).
func decodeGraph(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty graph data")
	}
	var nv, ne int
	if _, err := fmt.Sscanf(sc.Text(), "%d %d", &nv, &ne); err != nil {
		return nil, fmt.Errorf("dataset: bad graph header %q: %w", sc.Text(), err)
	}
	if nv < 0 || ne < 0 {
		return nil, fmt.Errorf("dataset: negative graph header %d %d", nv, ne)
	}
	if nv > maxTextVertices {
		return nil, fmt.Errorf("dataset: header declares %d vertices (limit %d)", nv, maxTextVertices)
	}
	edges := make([]graph.Edge, 0, min(ne, preallocEdgeCap))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if len(edges) == ne {
			return nil, fmt.Errorf("dataset: more edge lines than the %d declared", ne)
		}
		var s, d int32
		if _, err := fmt.Sscanf(line, "%d %d", &s, &d); err != nil {
			return nil, fmt.Errorf("dataset: bad edge line %q: %w", line, err)
		}
		edges = append(edges, graph.Edge{Src: s, Dst: d})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) != ne {
		return nil, fmt.Errorf("dataset: header declares %d edges, data has %d", ne, len(edges))
	}
	return graph.FromEdges(nv, edges)
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return encodeGraph(f, g)
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := decodeGraph(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return g, nil
}

func writeFeatures(path string, ftr *tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := 0; i < ftr.Rows(); i++ {
		row := ftr.Row(i)
		for j, v := range row {
			if j > 0 {
				w.WriteByte(' ')
			}
			w.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
		}
		w.WriteByte('\n')
	}
	return w.Flush()
}

func readFeatures(path string, numVertices int) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var rows [][]float32
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(rows) > 0 && len(fields) != len(rows[0]) {
			return nil, fmt.Errorf("dataset: feature row %d holds %d values, row 0 holds %d", len(rows), len(fields), len(rows[0]))
		}
		row := make([]float32, len(fields))
		for j, fv := range fields {
			x, err := strconv.ParseFloat(fv, 32)
			if err != nil {
				return nil, fmt.Errorf("dataset: bad feature %q on row %d: %w", fv, len(rows), err)
			}
			// NaN and ±Inf parse, and would train to NaN losses.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("dataset: feature %q on row %d is not finite", fv, len(rows))
			}
			row[j] = float32(x)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) != numVertices {
		return nil, fmt.Errorf("dataset: %d feature rows for %d vertices", len(rows), numVertices)
	}
	return tensor.FromRows(rows), nil
}

func writeLabels(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for v, l := range d.Labels {
		split := "test"
		switch {
		case d.TrainMask[v]:
			split = "train"
		case d.ValMask[v]:
			split = "val"
		}
		fmt.Fprintf(w, "%d %s\n", l, split)
	}
	return w.Flush()
}

func readLabels(path string, d *Dataset) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := d.Graph.NumVertices()
	d.Labels = make([]int32, 0, n)
	d.TrainMask = make([]bool, n)
	d.ValMask = make([]bool, n)
	d.TestMask = make([]bool, n)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v := len(d.Labels)
		if v >= n {
			return fmt.Errorf("dataset: more label lines than vertices (%d)", n)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("dataset: bad label line %q", line)
		}
		l, err := strconv.Atoi(fields[0])
		if err != nil {
			return fmt.Errorf("dataset: bad label %q: %w", fields[0], err)
		}
		// Checked before the int32 conversion, which would wrap a large label
		// into range; a negative one would index outside its row of logits.
		if l < 0 || l >= d.Spec.NumClasses {
			return fmt.Errorf("dataset: label %d outside %d classes declared in meta.txt", l, d.Spec.NumClasses)
		}
		d.Labels = append(d.Labels, int32(l))
		switch fields[1] {
		case "train":
			d.TrainMask[v] = true
		case "val":
			d.ValMask[v] = true
		case "test":
			d.TestMask[v] = true
		default:
			return fmt.Errorf("dataset: unknown split %q", fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(d.Labels) != n {
		return fmt.Errorf("dataset: %d labels for %d vertices", len(d.Labels), n)
	}
	return nil
}
