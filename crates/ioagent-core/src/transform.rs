//! JSON → natural-language transformation (paper §IV-B.1, Fig. 3).
//!
//! JSON summary fragments are precise but lexically distant from the expert
//! prose in the knowledge base; embedding-similarity retrieval works far
//! better when the query is itself prose. IOAgent therefore prompts the LLM
//! with the extraction code's intent, the JSON values, and the broader
//! application context, and uses the resulting description as the RAG query.

use preprocessor::SummaryFragment;
use simllm::{CompletionRequest, LanguageModel};

/// Build the transformation prompt for a fragment.
pub fn prompt(fragment: &SummaryFragment) -> String {
    let context: String = fragment
        .evidence
        .iter()
        .filter(|(k, _)| matches!(k.as_str(), "nprocs" | "runtime" | "total_bytes"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "### TASK: transform\n\
         Interpret this {title} summary for an HPC I/O expert audience.\n\
         ## CODE\n\
         // extraction function for the {title} category\n\
         ## JSON\n{json}\n\
         ## CONTEXT\n{context}\n",
        title = fragment.title,
        json = fragment.json_text(),
    )
}

/// The transformation request for a fragment.
pub fn request(fragment: &SummaryFragment) -> CompletionRequest {
    CompletionRequest::new(
        "You translate structured I/O telemetry into precise natural language.",
        prompt(fragment),
    )
}

/// Transform a fragment into its natural-language description.
pub fn to_natural_language(model: &dyn LanguageModel, fragment: &SummaryFragment) -> String {
    model.complete(&request(fragment)).text
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::SimLlm;
    use tracebench::TraceBench;

    #[test]
    fn histogram_fragment_becomes_prose() {
        let tb = TraceBench::generate();
        let t = tb.get("sb01_small_io").unwrap();
        let frags = preprocessor::extract_fragments(&t.trace);
        let io_size = frags
            .iter()
            .find(|f| f.title == "POSIX I/O Size")
            .expect("posix io size fragment");
        let model = SimLlm::new("gpt-4o");
        let nl = to_natural_language(&model, io_size);
        assert!(nl.contains("% of the"), "{nl}");
        assert!(nl.to_lowercase().contains("write operations"));
    }

    #[test]
    fn transformation_is_deterministic() {
        let tb = TraceBench::generate();
        let t = tb.get("ra_amrex").unwrap();
        let frags = preprocessor::extract_fragments(&t.trace);
        let model = SimLlm::new("llama-3.1-70b");
        let a = to_natural_language(&model, &frags[0]);
        let b = to_natural_language(&model, &frags[0]);
        assert_eq!(a, b);
    }
}
