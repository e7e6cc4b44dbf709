//! Regenerates **Table III — The State Sensitive Variables in
//! Applications**: for each evaluation application, the global variables
//! the application tracker must watch, with descriptions.

use std::time::Instant;

use bench::report::write_report;
use controller::apps;
use obs::Json;

fn main() {
    if bench::timeline::requested() {
        // No simulation in this table; use the standard defended-flood
        // scenario for the timeline artifact.
        bench::timeline::emit("table3", &bench::timeline::default_scenario());
    }
    let total = Instant::now();
    println!("# Table III — State Sensitive Variables in Applications");
    println!("{:<14} {:<18} description", "application", "variable");
    let mut rows = Vec::new();
    for program in apps::evaluation_apps() {
        for global in &program.globals {
            if global.state_sensitive {
                println!(
                    "{:<14} {:<18} {}",
                    program.name, global.name, global.description
                );
                rows.push(
                    Json::obj()
                        .set("app", program.name.as_str())
                        .set("variable", global.name.as_str()),
                );
            }
        }
    }
    let report = Json::obj()
        .set("bench", "table3")
        .set("scenario", "state-sensitive variables per evaluation app")
        .set("variables", rows.len())
        .set("wall_s", total.elapsed().as_secs_f64())
        .set("rows", Json::Arr(rows));
    match write_report("table3", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_table3.json: {err}"),
    }
}
