"""seqcomplexity: assembly pathways, classic coding schemes, CTM/BDM
tables, and the statistics to benchmark them against each other.
"""

from .assembly import (
    AssemblyPathway,
    JoinStep,
    assembly_index_exact,
    assembly_index_split,
    assembly_tree_dot,
    split_upper_bound,
    verify_pathway,
)
from .bdm import (
    BdmParams,
    CtmTable,
    bdm_1d,
    bdm_2d,
    ctm_enumerate,
    ctm_load,
    ctm_save,
    toy_table_1d,
    toy_table_2d,
)
from .coding import (
    HuffmanResult,
    LzwResult,
    huffman,
    huffman_tree_dot,
    lzw_encode,
    rle_encode,
    rle_length,
    shannon_entropy,
)
from .deceiver import (
    DivergenceReport,
    GeneratorSpec,
    champernowne,
    divergence_report,
    modular_generate,
)
from .ingest import (
    DatasetRecord,
    binarize_matrix,
    load_dataset,
    text_to_bits,
    write_results,
)
from .stats import StatReport, ks_two_sample, pearson, spearman, welch_t

__version__ = "0.1.0"

__all__ = [
    "AssemblyPathway",
    "JoinStep",
    "assembly_index_exact",
    "assembly_index_split",
    "assembly_tree_dot",
    "split_upper_bound",
    "verify_pathway",
    "BdmParams",
    "CtmTable",
    "bdm_1d",
    "bdm_2d",
    "ctm_enumerate",
    "ctm_load",
    "ctm_save",
    "toy_table_1d",
    "toy_table_2d",
    "HuffmanResult",
    "LzwResult",
    "huffman",
    "huffman_tree_dot",
    "lzw_encode",
    "rle_encode",
    "rle_length",
    "shannon_entropy",
    "DivergenceReport",
    "GeneratorSpec",
    "champernowne",
    "divergence_report",
    "modular_generate",
    "DatasetRecord",
    "binarize_matrix",
    "load_dataset",
    "text_to_bits",
    "write_results",
    "StatReport",
    "ks_two_sample",
    "pearson",
    "spearman",
    "welch_t",
]
