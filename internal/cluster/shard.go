package cluster

import "fillvoid/internal/recon"

// stitch copies one shard's output (box-local, x-fastest order, as the
// engine and the HTTP API emit it) into the full region's output
// array at the right offsets. dst is the flat output for region; src
// is the flat output for shard, which must be a sub-box of region.
func stitch(dst []float64, region recon.Region, src []float64, shard recon.Region) {
	rnx, rny, _ := region.Dims()
	snx, sny, snz := shard.Dims()
	di, dj, dk := shard.I0-region.I0, shard.J0-region.J0, shard.K0-region.K0
	for k := 0; k < snz; k++ {
		for j := 0; j < sny; j++ {
			srow := src[snx*(j+sny*k) : snx*(j+sny*k)+snx]
			off := (di) + rnx*((dj+j)+rny*(dk+k))
			copy(dst[off:off+snx], srow)
		}
	}
}
