//! `lobctl <image> check` — offline consistency checking (an `fsck` for
//! database images): read the catalog, open its objects, and print what
//! [`Db::verify`] finds walking from them (see its docs for the checks).
//!
//! The CLI maps results to exit codes the way `fsck` does: 0 when the
//! image is consistent, 1 when findings were reported, 2 when the image
//! could not be read at all. `--json` emits the findings in the same
//! `{"count": N, "findings": [...]}` shape the workspace linter uses.

use lobstore_core::{open_object, Catalog, Db, Finding, LargeObject};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as `{"count": N, "findings": [...]}`, one object per
/// finding carrying its stable [`Finding::kind`] and the human-readable
/// message.
pub fn findings_to_json(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "{\"count\": 0, \"findings\": []}".to_string();
    }
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"kind\": \"{}\", \"message\": \"{}\"}}",
                f.kind(),
                json_escape(&f.to_string())
            )
        })
        .collect();
    format!(
        "{{\"count\": {}, \"findings\": [\n{}\n]}}",
        findings.len(),
        items.join(",\n")
    )
}

/// Run `f`, converting a panic into an error message. Deep page-parsing
/// code asserts on structurally impossible values (entry counts beyond
/// page capacity and the like); the checker must stay total on garbage
/// input, so those asserts become findings rather than aborts.
fn catching<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Run all checks; an empty result means the database is consistent.
pub fn check_database(db: &mut Db, cat: &mut Catalog) -> Vec<Finding> {
    let catalog_broken = |detail: String| {
        vec![Finding::ObjectBroken {
            name: "<catalog>".into(),
            detail,
        }]
    };
    let read = || cat.pages(db).and_then(|pages| Ok((pages, cat.list(db)?)));
    let (pages, entries) = match catching(read) {
        Ok(Ok(read)) => read,
        Ok(Err(e)) => return catalog_broken(e.to_string()),
        Err(msg) => return catalog_broken(format!("checker panicked: {msg}")),
    };

    let mut findings = Vec::new();
    let mut objects = Vec::new();
    for entry in &entries {
        let detail = match catching(|| open_object(db, entry.kind, entry.root_page)) {
            Ok(Ok(obj)) => {
                objects.push((entry.name.as_str(), obj));
                continue;
            }
            Ok(Err(e)) => e.to_string(),
            Err(msg) => format!("checker panicked: {msg}"),
        };
        findings.push(Finding::ObjectBroken {
            name: entry.name.clone(),
            detail,
        });
    }
    let roots: Vec<(&str, &dyn LargeObject)> = objects
        .iter()
        .map(|(name, obj)| (*name, obj.as_ref()))
        .collect();
    match catching(|| db.verify(&roots, &pages)) {
        Ok(walked) => findings.extend(walked),
        Err(msg) => findings.push(Finding::ObjectBroken {
            name: "<walk>".into(),
            detail: format!("checker panicked: {msg}"),
        }),
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobstore_core::{DbConfig, ManagerSpec, StorageKind};

    fn setup() -> (Db, Catalog) {
        let mut db = Db::new(DbConfig::default());
        let mut cat = Catalog::create(&mut db).unwrap();
        for (name, spec) in [
            ("a", ManagerSpec::esm(4)),
            ("b", ManagerSpec::eos(16)),
            ("c", ManagerSpec::starburst()),
        ] {
            let mut obj = spec.create(&mut db).unwrap();
            obj.append(&mut db, &vec![7u8; 100_000]).unwrap();
            obj.trim(&mut db).unwrap();
            cat.put(&mut db, name, obj.kind(), obj.root_page()).unwrap();
        }
        (db, cat)
    }

    #[test]
    fn healthy_database_has_no_findings() {
        let (mut db, mut cat) = setup();
        let findings = check_database(&mut db, &mut cat);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn detects_corrupt_object_roots() {
        let (mut db, mut cat) = setup();
        let e = cat.get(&mut db, "a").unwrap().unwrap();
        // Stamp garbage over the root's magic.
        db.with_meta_page_mut(e.root_page, |p| p[0..4].copy_from_slice(b"XXXX"));
        let findings = check_database(&mut db, &mut cat);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                Finding::ObjectBroken { name, .. } if name == "a"
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn json_output_shape() {
        assert_eq!(findings_to_json(&[]), "{\"count\": 0, \"findings\": []}");
        let findings = [
            Finding::LeafLeaked { page: 9 },
            Finding::ObjectBroken {
                name: "a\"b".into(),
                detail: "broken".into(),
            },
        ];
        let json = findings_to_json(&findings);
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"kind\": \"leaf-leaked\""), "{json}");
        assert!(json.contains("\"kind\": \"object-broken\""), "{json}");
        assert!(json.contains("a\\\"b"), "quotes escaped: {json}");
    }

    #[test]
    fn detects_kind_confusion() {
        let (mut db, mut cat) = setup();
        // Re-register object "a" under the wrong kind.
        let e = cat.get(&mut db, "a").unwrap().unwrap();
        cat.remove(&mut db, "a").unwrap();
        cat.put(&mut db, "a", StorageKind::Starburst, e.root_page)
            .unwrap();
        let findings = check_database(&mut db, &mut cat);
        assert!(!findings.is_empty());
    }
}
