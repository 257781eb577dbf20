"""Randomness substrate: primes, k-wise independence, delay distributions."""

from .. import _lazy

__all__ = [
    "BlockDelay",
    "DelayDistribution",
    "KWiseGenerator",
    "SubcollectionResult",
    "TruncatedExponential",
    "UniformDelay",
    "bertrand_prime",
    "find_good_subcollection",
    "is_prime",
    "majority_fraction",
    "next_prime",
    "prime_for_buckets",
    "seed_bits_required",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "BlockDelay": "distributions",
        "DelayDistribution": "distributions",
        "TruncatedExponential": "distributions",
        "UniformDelay": "distributions",
        "KWiseGenerator": "kwise",
        "prime_for_buckets": "kwise",
        "seed_bits_required": "kwise",
        "SubcollectionResult": "newman",
        "find_good_subcollection": "newman",
        "majority_fraction": "newman",
        "bertrand_prime": "primes",
        "is_prime": "primes",
        "next_prime": "primes",
    },
)
