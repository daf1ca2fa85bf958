"""The paper's parallel strategies on the simulated DSM cluster."""

from ..plan.partition import (
    Tiling,
    balanced_band_size,
    band_heights,
    bounds_from_heights,
    chunk_widths,
    column_partition,
    explicit_tiling,
    split_even,
    tiling_from_multiplier,
)
from .base import RegionSettings, ScaledWorkload
from .blocked import BlockedConfig, run_blocked, serial_blocked_time
from .column_store import ColumnStore, restart_band_from_store, save_preprocess_columns
from .hetero import HeteroConfig, SubCluster, hetero_serial_time, run_hetero
from .preprocess import (
    BAND_SCHEMES,
    IO_MODES,
    PreprocessConfig,
    run_preprocess,
    serial_preprocess_time,
)
from .cache import DEFAULT_CACHE, SearchCache, cache_key
from .prefilter import (
    AUTO_MIN_SEQUENCES,
    PREFILTER_MODES,
    pruned_search,
    resolve_prefilter,
)
from .retrieval import InterestingRegion, interesting_regions, retrieve_alignments
from .search import (
    SearchConfig,
    SearchHit,
    SearchResult,
    search_db,
    search_db_sequential,
)
from .tuning import TuningResult, tune_blocking
from .runner import (
    STRATEGIES,
    STRATEGY_ALIASES,
    PipelineResult,
    canonical_strategy,
    run_mp_pipeline,
    run_phase1,
    run_pipeline,
)
from .wavefront import WavefrontConfig, run_wavefront, serial_wavefront_time
from .wavefront_exact import ExactWavefrontConfig, exact_wavefront_alignments

__all__ = [
    "AUTO_MIN_SEQUENCES",
    "BAND_SCHEMES",
    "BlockedConfig",
    "ColumnStore",
    "DEFAULT_CACHE",
    "SearchCache",
    "ExactWavefrontConfig",
    "HeteroConfig",
    "IO_MODES",
    "InterestingRegion",
    "PREFILTER_MODES",
    "PipelineResult",
    "PreprocessConfig",
    "RegionSettings",
    "STRATEGIES",
    "STRATEGY_ALIASES",
    "ScaledWorkload",
    "SearchConfig",
    "SearchHit",
    "SearchResult",
    "SubCluster",
    "Tiling",
    "TuningResult",
    "WavefrontConfig",
    "balanced_band_size",
    "band_heights",
    "bounds_from_heights",
    "cache_key",
    "canonical_strategy",
    "chunk_widths",
    "column_partition",
    "exact_wavefront_alignments",
    "explicit_tiling",
    "hetero_serial_time",
    "interesting_regions",
    "pruned_search",
    "resolve_prefilter",
    "run_blocked",
    "run_hetero",
    "run_mp_pipeline",
    "run_phase1",
    "run_pipeline",
    "run_preprocess",
    "retrieve_alignments",
    "restart_band_from_store",
    "run_wavefront",
    "save_preprocess_columns",
    "search_db",
    "search_db_sequential",
    "serial_blocked_time",
    "serial_preprocess_time",
    "serial_wavefront_time",
    "split_even",
    "tiling_from_multiplier",
    "tune_blocking",
]
