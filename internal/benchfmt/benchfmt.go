// Package benchfmt holds the provenance header the JSON performance reports
// share: the load generator's and the scenario runner's reports embed the
// same Header, so every such artifact carries identical provenance fields.
package benchfmt

import (
	"runtime"
	"time"
)

// Header identifies when and where a perf artifact was produced.
type Header struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
}

// NewHeader stamps a header for an artifact produced now.
func NewHeader() Header {
	return Header{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
}
