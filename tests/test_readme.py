"""The README's examples, run and compared with the output the README shows.

The ``## Library`` block is executed and its printed line compared with the
``# `` comment that ends it. Each shown ``sq-toolkit`` run goes through
``cli.main`` in-process: ``bell.json`` is the README's own JSON block, and
an ``<(echo '...')`` config is written to a file first. What a run writes
to stdout and then stderr must equal the lines under its ``$`` line.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from sq_toolkit import cli
from sq_toolkit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
BLOCKS = FENCED.findall(README)
INLINE_CONFIG = re.compile(r"<\(echo '(.*)'\)")


def _blocks(tag: str) -> list[str]:
    return [body for fence_tag, body in BLOCKS if fence_tag == tag]


def _capture(run) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        run()
    return out.getvalue() + err.getvalue()


def test_library_example_prints_what_the_readme_shows():
    library = README.split("## Library", 1)[1]
    code = FENCED.search(library).group(2)
    expected = "".join(
        line[2:] + "\n" for line in code.splitlines() if line.startswith("# ")
    )
    assert expected
    assert _capture(lambda: exec(code, {})) == expected


@pytest.mark.parametrize("command", ["schmidt", "sq", "scatter"])
def test_command_line_example_prints_what_the_readme_shows(tmp_path, command):
    (example,) = [b for b in _blocks("") if b.startswith(f"$ sq-toolkit {command} ")]
    shown, expected = example.split("\n", 1)
    argv = shown.split()[2:]
    config = argv[argv.index("--config") + 1 :]
    path = tmp_path / "config.json"
    if config == ["bell.json"]:
        (bell,) = [b for b in _blocks("json") if '"state"' in b]
        path.write_text(bell)
    else:
        path.write_text(INLINE_CONFIG.search(" ".join(config)).group(1))
    argv = argv[: argv.index("--config")] + ["--config", str(path)]
    codes = []
    assert _capture(lambda: codes.append(main(argv))) == expected
    assert codes == [0]


@pytest.mark.parametrize(
    "lead, keys",
    [
        ("search configs may set", set(cli._SEARCH_KEYS)),
        ("`verify` runs the property battery", cli.CONFIG_KEYS["verify"]),
        ("Scatter config keys:", cli.CONFIG_KEYS["scatter"]),
        ("Gas config keys:", cli.CONFIG_KEYS["gas"]),
    ],
    ids=["sq-search", "verify", "scatter", "gas"],
)
def test_config_key_lists_match_the_cli(lead, keys):
    """The backticked names in the sentence that lists a subcommand's config
    keys, from its lead to the next sentence end, are the keys the CLI
    reads."""
    sentence = re.search(re.escape(lead) + r"(.*?)[.:]\s", README, re.DOTALL).group(1)
    names = re.findall(r"`([^`]+)`", sentence)
    assert sorted(names) == sorted(keys)
