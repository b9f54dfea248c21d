"""Shared guards for spec loaders and enumerated settings."""


def reject_unknown_keys(payload, known, what: str) -> None:
    """Refuse keys a loader would otherwise drop (a typo must not load
    as an empty fault plan or a zero deadline)."""
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


def check_choice(what: str, value, known) -> None:
    """Refuse a setting that is not one of its ``known`` values."""
    if value not in known:
        choices = ", ".join(str(choice) for choice in known)
        raise ValueError(f"unknown {what} {value!r} (known: {choices})")
