"""The README's Python API sketch and command-line tour run against the
package as it is."""

import re
import shlex
from pathlib import Path

from recordkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def tour_commands():
    """The "Command-line tour" block as argv lists, with each backslash
    continuation joined to its line and comments and blank lines dropped."""
    block = re.search(r"^## Command-line tour\n\n```sh\n(.*?)^```",
                      README.read_text(), re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True)
                              for line in lines) if argv]


def run_tour():
    """Run the tour in the current directory: the echo line writes its
    file, and every recordkit line must exit 0 through cli.main."""
    for argv in tour_commands():
        if argv[0] == "echo":  # echo '<text>' > <file>
            assert argv[2] == ">" and len(argv) == 4, argv
            Path(argv[3]).write_text(argv[1] + "\n")
        else:
            assert argv[0] == "recordkit", argv
            assert main(argv[1:]) == 0, argv


def test_readme_command_tour_exits_zero(tmp_path, monkeypatch):
    commands = tour_commands()
    assert [argv[0] for argv in commands].count("echo") == 1
    assert ["recordkit", "recordize", "maj9.nl", "--rand-bits", "2",
            "--subset", "all", "--grouping", "checkerboard",
            "-o", "maj9r2.nl"] in commands  # a joined continuation
    monkeypatch.chdir(tmp_path)
    run_tour()
    assert (tmp_path / "plan.json").read_text().startswith('[{"cycle": 17')
    assert (tmp_path / "ft.json").is_file()
