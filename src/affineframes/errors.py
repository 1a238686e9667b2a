"""Exception types shared across the toolkit, and the byte cap that
`ResourceLimitError` enforces before arrays are built."""


class RejectedInputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its declared resource cap."""


class DegenerateDomainError(RuntimeError):
    """A Monte Carlo measure estimate is indistinguishable from zero."""


class SingularPointError(ValueError):
    """Evaluation requested at the group identity where the sum may diverge."""


MAX_GRID_BYTES = 2 ** 30  # bytes of arrays one step may build


def check_bytes(items: int, item_bytes: int, what: str) -> None:
    """Raise before `items` of `item_bytes` bytes each would pass MAX_GRID_BYTES."""
    if items * item_bytes > MAX_GRID_BYTES:
        raise ResourceLimitError(f"{what}: {items} need {items * item_bytes} bytes "
                                 f"(cap {MAX_GRID_BYTES})")
