//! Every registry scenario and every shipped `crates/machines/specs/*.asim`
//! file must lint clean — no error and no warning, as
//! `asim2 lint --deny warnings` demands — so a finding here is either a
//! real spec bug or an unsound pass.

use rtl_lint::lint_source;

#[test]
fn all_registry_scenarios_lint_clean() {
    let names = rtl_machines::scenarios::names();
    assert!(names.len() >= 19, "registry shrank: {}", names.len());
    let mut sources: Vec<(String, String)> = names
        .iter()
        .map(|name| {
            let scenario = rtl_machines::scenarios::by_name(name).unwrap();
            (scenario.name, scenario.source)
        })
        .collect();
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../machines/specs");
    let mut files = 0;
    for dirent in std::fs::read_dir(specs).unwrap() {
        let path = dirent.unwrap().path();
        if path.extension().is_some_and(|e| e == "asim") {
            let source = std::fs::read_to_string(&path).unwrap();
            if !sources.iter().any(|(_, s)| *s == source) {
                sources.push((path.display().to_string(), source));
            }
            files += 1;
        }
    }
    assert!(files >= 7, "specs/ shrank: {files} file(s)");
    for (name, source) in sources {
        let report = lint_source(&source);
        assert!(report.is_clean(), "{name}:\n{}", report.render_text(&name));
    }
}
