"""RP003 violating: import-time work, double registration, a preview guard."""

from repro.experiments.registry import register

print("importing runs on every discover() call")

for _ in range(3):
    pass

if True:
    FLAG = 1


@register
def exp_one():
    return None


@register
def exp_two():
    return None


if __name__ == "__main__":
    exp_one()
