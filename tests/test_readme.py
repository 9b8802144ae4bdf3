import re
import shlex
from pathlib import Path

from srlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_taste_snippet_runs(capsys):
    # the first python block of the README must run as written
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    sweep, sigma_star = ns["sweep"], ns["sigma_star"]
    assert sweep.sigmas[0] < sigma_star < sweep.sigmas[-1]
    assert capsys.readouterr().out.strip()


def readme_commands():
    """The srlab and cmp lines of every sh block of the README, in order,
    continuation lines joined and comments dropped."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] in ("srlab", "cmp"):
                lines.append(argv)
    return lines


def test_cli_blocks_run_as_written(tmp_path, monkeypatch):
    # the usage and replay blocks, in a fresh directory: every command exits
    # 0 and every cmp finds identical files
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [a[0] for a in commands].count("cmp") >= 1
    for argv in commands:
        if argv[0] == "srlab":
            assert main(argv[1:]) == 0, argv
        else:
            first, second = argv[1:]
            assert Path(first).read_bytes() == Path(second).read_bytes(), argv
