package vtk

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
)

func testVolume() *grid.Volume {
	gen := datasets.NewIsabel(4)
	return datasets.Volume(gen, 8, 6, 4, 2)
}

func TestVTIRoundTrip(t *testing.T) {
	v := testVolume()
	var buf bytes.Buffer
	if err := WriteVTI(&buf, v, "pressure"); err != nil {
		t.Fatal(err)
	}
	got, name, err := ReadVTI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "pressure" {
		t.Fatalf("name %q", name)
	}
	if !got.SameGeometry(v) {
		t.Fatalf("geometry: %+v vs %+v", got, v)
	}
	for i := range v.Data {
		if v.Data[i] != got.Data[i] {
			t.Fatalf("data mismatch at %d: %g vs %g", i, v.Data[i], got.Data[i])
		}
	}
}

func TestVTIFileRoundTrip(t *testing.T) {
	v := testVolume()
	path := filepath.Join(t.TempDir(), "vol.vti")
	if err := WriteVTIFile(path, v, "p"); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadVTIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if grid.MaxAbsDiff(v, got) != 0 {
		t.Fatal("file round trip lost data")
	}
}

func TestVTIRejectsGarbage(t *testing.T) {
	if _, _, err := ReadVTI(strings.NewReader("<xml>nope</xml>")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, _, err := ReadVTI(strings.NewReader(`<VTKFile type="PolyData"></VTKFile>`)); err == nil {
		t.Fatal("accepted wrong type")
	}
}

func TestVTIXMLEscaping(t *testing.T) {
	v := grid.New(2, 2, 2)
	var buf bytes.Buffer
	if err := WriteVTI(&buf, v, `weird "<name>" & stuff`); err != nil {
		t.Fatal(err)
	}
	_, name, err := ReadVTI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != `weird "<name>" & stuff` {
		t.Fatalf("name %q", name)
	}
}

func TestVTPRoundTrip(t *testing.T) {
	c := pointcloud.New("density", 3)
	c.Add(mathutil.Vec3{X: 1.5, Y: -2, Z: 0.25}, 42)
	c.Add(mathutil.Vec3{X: 0, Y: 0, Z: 0}, -1e-9)
	c.Add(mathutil.Vec3{X: 1e6, Y: 2e-7, Z: 3}, math.Pi)
	var buf bytes.Buffer
	if err := WriteVTP(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "density" || got.Len() != 3 {
		t.Fatalf("meta: %q %d", got.Name, got.Len())
	}
	for i := range c.Points {
		if c.Points[i] != got.Points[i] || c.Values[i] != got.Values[i] {
			t.Fatalf("point %d mismatch", i)
		}
	}
}

func TestVTPFileRoundTrip(t *testing.T) {
	c := pointcloud.New("f", 1)
	c.Add(mathutil.Vec3{X: 1, Y: 2, Z: 3}, 9)
	path := filepath.Join(t.TempDir(), "pts.vtp")
	if err := WriteVTPFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVTPFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Values[0] != 9 {
		t.Fatal("file round trip lost data")
	}
}

func TestVTPWriteRejectsNonFiniteCoordinates(t *testing.T) {
	c := pointcloud.New("f", 2)
	c.Add(mathutil.Vec3{X: 1, Y: 2, Z: 3}, 9)
	c.Add(mathutil.Vec3{X: math.NaN(), Y: 2, Z: 3}, 9)
	var buf bytes.Buffer
	if err := WriteVTP(&buf, c); err == nil || !strings.Contains(err.Error(), "point 1 ") {
		t.Fatalf("WriteVTP = %v, want an error naming point 1", err)
	}
}

func TestVTPRejectsGarbage(t *testing.T) {
	if _, err := ReadVTP(strings.NewReader("junk")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ReadVTP(strings.NewReader(`<VTKFile type="ImageData"></VTKFile>`)); err == nil {
		t.Fatal("accepted wrong type")
	}
}

func TestRenderPGM(t *testing.T) {
	v := testVolume()
	var buf bytes.Buffer
	if err := RenderSlicePGM(&buf, v, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, []byte("P5\n8 6\n255\n")) {
		t.Fatalf("header: %q", b[:16])
	}
	want := len("P5\n8 6\n255\n") + 8*6
	if len(b) != want {
		t.Fatalf("size %d want %d", len(b), want)
	}
}

func TestRenderPPM(t *testing.T) {
	v := testVolume()
	var buf bytes.Buffer
	if err := RenderSlicePPM(&buf, v, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, []byte("P6\n8 6\n255\n")) {
		t.Fatalf("header: %q", b[:16])
	}
	want := len("P6\n8 6\n255\n") + 8*6*3
	if len(b) != want {
		t.Fatalf("size %d want %d", len(b), want)
	}
}

func TestRenderPPMFile(t *testing.T) {
	v := testVolume()
	path := filepath.Join(t.TempDir(), "slice.ppm")
	if err := RenderSlicePPMFile(path, v, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRenderConstantSlice(t *testing.T) {
	v := grid.New(4, 4, 1) // all zeros: lo == hi auto-range
	var buf bytes.Buffer
	if err := RenderSlicePGM(&buf, v, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDivergingColormapEndpoints(t *testing.T) {
	r, g, b := divergingColor(0)
	if r != 0 || g != 0 || b != 255 {
		t.Fatalf("t=0: %d %d %d", r, g, b)
	}
	r, g, b = divergingColor(1)
	if r != 255 || g != 0 || b != 0 {
		t.Fatalf("t=1: %d %d %d", r, g, b)
	}
	r, g, b = divergingColor(0.5)
	if r != 255 || g != 255 || b != 255 {
		t.Fatalf("t=0.5: %d %d %d", r, g, b)
	}
}

func TestVTIRejectsWrongValueCount(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<VTKFile type="ImageData" version="0.1" byte_order="LittleEndian">
  <ImageData WholeExtent="0 1 0 1 0 0" Origin="0 0 0" Spacing="1 1 1">
    <Piece Extent="0 1 0 1 0 0">
      <PointData Scalars="f">
        <DataArray type="Float64" Name="f" format="ascii">
1 2 3
        </DataArray>
      </PointData>
    </Piece>
  </ImageData>
</VTKFile>`
	if _, _, err := ReadVTI(strings.NewReader(doc)); err == nil {
		t.Fatal("accepted 3 values for a 4-point grid")
	}
}

func TestVTIRejectsBinaryFormat(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<VTKFile type="ImageData" version="0.1" byte_order="LittleEndian">
  <ImageData WholeExtent="0 1 0 0 0 0" Origin="0 0 0" Spacing="1 1 1">
    <Piece Extent="0 1 0 0 0 0">
      <PointData Scalars="f">
        <DataArray type="Float64" Name="f" format="binary">AAAA</DataArray>
      </PointData>
    </Piece>
  </ImageData>
</VTKFile>`
	if _, _, err := ReadVTI(strings.NewReader(doc)); err == nil {
		t.Fatal("accepted unsupported binary format")
	}
}

func TestVTIRejectsMalformedExtent(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<VTKFile type="ImageData" version="0.1" byte_order="LittleEndian">
  <ImageData WholeExtent="0 1 0 1" Origin="0 0 0" Spacing="1 1 1">
    <Piece Extent="0 1 0 1"><PointData><DataArray format="ascii">1</DataArray></PointData></Piece>
  </ImageData>
</VTKFile>`
	if _, _, err := ReadVTI(strings.NewReader(doc)); err == nil {
		t.Fatal("accepted 4-field extent")
	}
}

func TestVTPRejectsRaggedCoordinates(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<VTKFile type="PolyData" version="0.1" byte_order="LittleEndian">
  <PolyData>
    <Piece NumberOfPoints="2">
      <PointData Scalars="f">
        <DataArray type="Float64" Name="f" format="ascii">1 2</DataArray>
      </PointData>
      <Points>
        <DataArray type="Float64" Name="Points" NumberOfComponents="3" format="ascii">
0 0 0 1 1
        </DataArray>
      </Points>
    </Piece>
  </PolyData>
</VTKFile>`
	if _, err := ReadVTP(strings.NewReader(doc)); err == nil {
		t.Fatal("accepted coordinate count not divisible by 3")
	}
}

func TestReadForeignVTI(t *testing.T) {
	// A hand-authored file with Float32 type and irregular whitespace
	// still parses (the reader is tolerant of value types).
	const doc = `<?xml version="1.0"?>
<VTKFile type="ImageData" version="0.1" byte_order="LittleEndian">
  <ImageData WholeExtent="0 1 0 1 0 1" Origin="1 2 3" Spacing="0.5 0.5 2">
    <Piece Extent="0 1 0 1 0 1">
      <PointData Scalars="density">
        <DataArray type="Float32" Name="density" format="ascii">
   1.5 2.5
 3.5   4.5
5.5 6.5 7.5 8.5
        </DataArray>
      </PointData>
    </Piece>
  </ImageData>
</VTKFile>`
	v, name, err := ReadVTI(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if name != "density" || v.NX != 2 || v.NY != 2 || v.NZ != 2 {
		t.Fatalf("parsed %q %dx%dx%d", name, v.NX, v.NY, v.NZ)
	}
	if v.Origin.X != 1 || v.Spacing.Z != 2 {
		t.Fatalf("geometry %+v %+v", v.Origin, v.Spacing)
	}
	if v.Data[7] != 8.5 {
		t.Fatalf("data %v", v.Data)
	}
}
