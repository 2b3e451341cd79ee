import json

import golden


def test_outputs_match_the_golden_manifest(tmp_path):
    # The rerun tests compare a run with itself; this compares it with the
    # bytes the manifest pinned.  An environment difference is reported, but
    # only the outputs decide.
    expected = json.loads(golden.MANIFEST.read_text())
    actual = golden.run(tmp_path)
    problems = golden.output_differences(expected, actual)
    assert not problems, "\n".join(problems + golden.environment_differences(expected, actual))
