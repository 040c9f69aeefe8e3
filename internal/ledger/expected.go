package ledger

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// Violation is one pinned violated assertion: its report label and text,
// and the BUG(seeded) site in the corpus that causes it.
type Violation struct {
	Label string `json:"label"`
	Text  string `json:"text"`
	Bug   string `json:"bug"`
}

// Expected maps each workload to its pinned verdict; the file's
// "program" fields only describe the inputs.
type Expected map[string]struct {
	Violated []Violation `json:"violated"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

// LoadExpected returns the pinned verdicts of testdata/expected.json.
func LoadExpected() (Expected, error) {
	var exp Expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("ledger: testdata/expected.json: %w", err)
	}
	return exp, nil
}
