package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import java.util.Locale

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.BenchEnvironment.root
import repro.tables.Table1

/** Regenerates paper Table 1: runtime of pair-based metric/metric diagrams,
  * custom incremental algorithm vs naïve per-threshold recomputation, at the
  * paper's dataset sizes (up to 1M records / 144k matches, s = 100).
  *
  * Shape contract (the paper's hardware differs, absolute times will not
  * match): the custom algorithm wins on every dataset, by a growing factor
  * on the larger ones, and stays interactive at 1M records.
  *
  * The print test also writes `BENCH_table1.json` at the repository root:
  * each workload's best custom and naive time and their speedup, and the
  * median and quartiles of each algorithm's reps, under a one-line
  * environment banner (cores, max heap, JVM, git revision), so runs on
  * two commits can be compared.
  */
class Table1Bench extends AnyFunSuite {

  private val reps = 7
  private lazy val results = Table1.runAll(reps)

  private lazy val banner: String = BenchEnvironment.banner(None)

  private def json(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  private def num(x: Double): String = "%.2f".formatLocal(Locale.ROOT, x)

  /** A timing's median and quartiles as JSON fields named `<name>_p25_ms` etc. */
  private def spread(name: String, t: Table1.Timing): String =
    Seq(25, 50, 75).map(p => s""""${name}_p${p}_ms": ${num(t.quantile(p / 100.0))}""").mkString(", ")

  private def writeJson(): File = {
    val rows = results.map { r =>
      s"""    {"dataset": ${json(r.dataset)}, "records": ${r.records}, "matches": ${r.matchedPairs}, """ +
        s""""custom_ms": ${num(r.customMs)}, "naive_ms": ${num(r.naiveMs)}, "speedup": ${num(r.speedup)}, """ +
        s"""${spread("custom", r.custom)}, ${spread("naive", r.naive)}}"""
    }
    val text =
      s"""{
         |  "environment": ${json(banner)},
         |  "sample_points": ${Table1.samplePoints},
         |  "timing": ${json(s"best (custom_ms, naive_ms, speedup), median and quartiles of $reps reps after $reps untimed custom reps, ms")},
         |  "workloads": [
         |${rows.mkString(",\n")}
         |  ]
         |}
         |""".stripMargin
    val file = new File(root, "BENCH_table1.json")
    Files.write(file.toPath, text.getBytes(StandardCharsets.UTF_8))
    file
  }

  test("print Table 1 (paper vs measured)") {
    val paper = Map(
      "Altosight X4"   -> (184.0, 1700.0, 9.0),
      "HPI Cora"       -> (245.0, 7400.0, 30.0),
      "FreeDB CDs"     -> (293.0, 16400.0, 56.0),
      "Songs 100k"     -> (1600.0, 43900.0, 28.0),
      "Magellan Songs" -> (6100.0, 403000.0, 66.0),
    )
    println("=== Table 1: Runtime of Metric/Metric Diagrams (100 thresholds) ===")
    println(banner)
    println(Table1.format(results))
    println("--- paper reference (Node.js on i5 laptop) ---")
    paper.foreach { case (d, (c, n, s)) =>
      println(f"$d%-16s custom ${c}%8.0fms naive ${n}%8.0fms speedup ${s}%5.1fx")
    }
    println(s"wrote ${writeJson()}")
  }

  test("custom beats naive on every dataset") {
    results.foreach { r =>
      assert(r.speedup > 1.0, s"${r.dataset}: custom (${r.customMs}ms) not faster than naive (${r.naiveMs}ms)")
    }
  }

  test("speedup is substantial (>5x) on the datasets beyond the smallest") {
    results.filter(_.records >= 1879).foreach { r =>
      assert(r.speedup > 5.0, s"${r.dataset}: speedup only ${r.speedup}")
    }
  }

  test("custom algorithm stays interactive at 1M records (< 10s)") {
    val m = results.find(_.dataset == "Magellan Songs").get
    assert(m.customMs < 10000, s"custom took ${m.customMs}ms")
  }

  test("speedup grows with dataset size (paper: 9x at 835 records, 66x at 1M)") {
    val bySize = results.sortBy(_.records)
    assert(bySize.last.speedup > bySize.head.speedup,
      s"largest dataset speedup ${bySize.last.speedup} not above smallest ${bySize.head.speedup}")
    // and the naive cost per sample point rises with records (it rebuilds
    // the clustering from scratch each time)
    val perPoint = bySize.map(r => r.naiveMs / Table1.samplePoints)
    assert(perPoint.last > perPoint.head)
  }
}
