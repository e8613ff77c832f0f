//! The two serving applications and their seeded request generators.
//!
//! The generators are the only place the seed enters: it picks the page or
//! topic of each request and the length of each edit body. The program
//! sees only the generated requests. Each generator also keeps the state
//! the client expects, so every response can be checked.

use std::collections::BTreeMap;
use warp_core::AppConfig;
use warp_http::HttpRequest;
use warp_ttdb::TableAnnotation;

/// Pages of the long-history wiki.
pub const WIKI_PAGES: usize = 8;
/// Topics of the notes app.
pub const NOTE_TOPICS: usize = 16;
/// Iterations of the loop in the notes edit page.
pub const NOTE_LOOP: usize = 96;

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5745_5250_4245_4e43)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An edit body: a revision tag plus seeded filler of 16–47 characters.
fn body_text(rng: &mut Rng, tag: &str) -> String {
    const WORDS: [&str; 8] = [
        "alpha", "bravo", "delta", "echo", "kilo", "lima", "oscar", "tango",
    ];
    let len = 16 + rng.below(32);
    let mut body = tag.to_string();
    while body.len() < tag.len() + len {
        body.push(' ');
        body.push_str(WORDS[rng.below(WORDS.len())]);
    }
    body.truncate(tag.len() + len);
    body
}

/// The 8-page wiki of the persistence and serving tables: a `page` table
/// partitioned by title, a view page and an edit page.
pub fn wiki_app() -> AppConfig {
    let mut config = AppConfig::new("bench-wiki");
    config.add_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
        TableAnnotation::new()
            .row_id("page_id")
            .partitions(["title"]),
    );
    for p in 0..WIKI_PAGES {
        config.seed(format!(
            "INSERT INTO page (page_id, title, body) VALUES ({}, 'Page{p}', 'seed {p}')",
            p + 1
        ));
    }
    config.add_source(
        "view.wasl",
        "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         if (len(rows) == 0) { echo(\"<p>missing</p>\"); } else { echo(\"<div>\" . rows[0][\"body\"] . \"</div>\"); }",
    );
    config.add_source("edit.wasl", wiki_edit_source(""));
    config
}

/// The wiki's edit page, storing `prefix` before every submitted body
/// (the retroactive patches use a non-empty prefix).
pub fn wiki_edit_source(prefix: &str) -> String {
    format!(
        "db_query(\"UPDATE page SET body = '\" . sql_escape(\"{prefix}\" . param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         echo(\"<p>saved</p>\");"
    )
}

/// One generated request and the response body the client expects.
#[derive(Debug, Clone)]
pub struct Step {
    pub request: HttpRequest,
    pub expected: String,
    /// The page or topic the request touches.
    pub key: usize,
    /// The body an edit submits (empty for reads).
    pub body: String,
}

/// Wiki traffic: one view for every two edits, over seeded pages.
#[derive(Debug, Clone)]
pub struct WikiTraffic {
    rng: Rng,
    n: usize,
    /// The body each page shows now.
    pub bodies: Vec<String>,
}

impl WikiTraffic {
    pub fn new(seed: u64) -> Self {
        WikiTraffic {
            rng: Rng::new(seed),
            n: 0,
            bodies: (0..WIKI_PAGES).map(|p| format!("seed {p}")).collect(),
        }
    }

    pub fn next_step(&mut self) -> Step {
        let page = self.rng.below(WIKI_PAGES);
        let i = self.n;
        self.n += 1;
        if i % 3 == 2 {
            return Step {
                request: HttpRequest::get(&format!("/view.wasl?title=Page{page}")),
                expected: format!("<div>{}</div>", self.bodies[page]),
                key: page,
                body: String::new(),
            };
        }
        let body = body_text(&mut self.rng, &format!("rev {i} of page {page}"));
        self.bodies[page] = body.clone();
        Step {
            request: HttpRequest::post(
                "/edit.wasl",
                [("title", format!("Page{page}").as_str()), ("body", &body)],
            ),
            expected: "<p>saved</p>".to_string(),
            key: page,
            body,
        }
    }
}

/// The 16-topic notes app: a clone-safe `note` table partitioned by topic,
/// a read page, and a script-heavy edit page (a 96-iteration loop before
/// its one UPDATE).
pub fn notes_app() -> AppConfig {
    let mut config = AppConfig::new("bench-notes");
    config.add_table(
        "CREATE TABLE note (note_id INTEGER, topic TEXT, body TEXT)",
        TableAnnotation::new()
            .row_id("note_id")
            .partitions(["topic"]),
    );
    for t in 0..NOTE_TOPICS {
        config.seed(format!(
            "INSERT INTO note (note_id, topic, body) VALUES ({}, 'topic{t}', 'seed {t}')",
            t + 1
        ));
    }
    config.add_source(
        "edit.wasl",
        format!(
            "let n = 0; let digest = \"\"; \
             while (n < {NOTE_LOOP}) {{ digest = digest . \"-\" . n; n = n + 1; }} \
             db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
             echo(\"saved \" . n);"
        ),
    );
    config.add_source("read.wasl", notes_read_source("div"));
    config
}

/// The notes read page, wrapping the body in `tag` (the retroactive
/// patches change the tag).
pub fn notes_read_source(tag: &str) -> String {
    format!(
        "let rows = db_query(\"SELECT body FROM note WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
         echo(\"<{tag}>\" . rows[0][\"body\"] . \"</{tag}>\");"
    )
}

/// Notes traffic: three edits for every read, over seeded topics.
#[derive(Debug, Clone)]
pub struct NotesTraffic {
    rng: Rng,
    n: usize,
    /// The body each topic holds now.
    pub bodies: Vec<String>,
}

impl NotesTraffic {
    pub fn new(seed: u64) -> Self {
        NotesTraffic {
            rng: Rng::new(seed),
            n: 0,
            bodies: (0..NOTE_TOPICS).map(|t| format!("seed {t}")).collect(),
        }
    }

    pub fn next_step(&mut self) -> Step {
        let topic = self.rng.below(NOTE_TOPICS);
        let i = self.n;
        self.n += 1;
        if i % 4 == 3 {
            return Step {
                request: HttpRequest::get(&format!("/read.wasl?topic=topic{topic}")),
                expected: format!("<div>{}</div>", self.bodies[topic]),
                key: topic,
                body: String::new(),
            };
        }
        let body = body_text(&mut self.rng, &format!("note {i} on {topic}"));
        self.bodies[topic] = body.clone();
        Step {
            request: HttpRequest::post(
                "/edit.wasl",
                [("topic", format!("topic{topic}").as_str()), ("body", &body)],
            ),
            expected: format!("saved {NOTE_LOOP}"),
            key: topic,
            body,
        }
    }
}

/// An application's sources by file name (what [`crate::wrappers::StubHost`]
/// resolves includes from).
pub fn source_map(config: &AppConfig) -> BTreeMap<String, String> {
    config.sources.iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_repeats_for_a_seed_and_differs_across_seeds() {
        let targets = |seed| {
            let mut t = WikiTraffic::new(seed);
            (0..30)
                .map(|_| t.next_step().request.target())
                .collect::<Vec<_>>()
        };
        assert_eq!(targets(7), targets(7));
        assert_ne!(targets(7), targets(8));
    }

    #[test]
    fn mixes_match_the_workload_ratios() {
        let mut wiki = WikiTraffic::new(1);
        let wiki_reads = (0..300)
            .filter(|_| wiki.next_step().body.is_empty())
            .count();
        assert_eq!(wiki_reads, 100);
        let mut notes = NotesTraffic::new(1);
        let note_reads = (0..400)
            .filter(|_| notes.next_step().body.is_empty())
            .count();
        assert_eq!(note_reads, 100);
    }
}
