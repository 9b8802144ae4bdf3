import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_taste_snippet_runs(capsys):
    # the first python block of the README must run as written
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    sweep, sigma_star = ns["sweep"], ns["sigma_star"]
    assert sweep.sigmas[0] < sigma_star < sweep.sigmas[-1]
    assert capsys.readouterr().out.strip()
