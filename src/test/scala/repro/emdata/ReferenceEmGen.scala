package repro.emdata

import scala.util.Random

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types._

import repro.core.DriverFrames
import repro.emdata.EmGen.{AttrSpec, EmDataset, EmSpec, ZipfSampler, dropRate, labeledPairs, swapRate, zipfAlpha}

/** The generator [[EmGen.generate]] is checked against: the same draws in
  * the same order, over boxed collections. Each value is drawn as an array
  * of token strings, corrupted through `Option`s and joined with
  * `mkString` on the driver, and the records frame carries the strings.
  */
object ReferenceEmGen {

  def generate(spark: SparkSession, spec: EmSpec): EmDataset = {
    val rnd = new Random(spec.seed)
    val pool = rnd.shuffle(spec.pool)
    val zipf = new ZipfSampler(pool.size, zipfAlpha, rnd)

    def drawValue(attr: AttrSpec): Array[String] = {
      val k = math.max(1, math.round(attr.meanWords + rnd.nextGaussian() * attr.meanWords / 5.0).toInt)
      Array.fill(k) {
        val idx = if (attr.zipf) zipf.next() else rnd.nextInt(pool.size)
        pool(idx)
      }
    }

    def corrupt(tokens: Array[String], attr: AttrSpec): String = {
      if (rnd.nextDouble() < attr.nullRate) return null
      val kept = tokens.flatMap { t =>
        if (rnd.nextDouble() < dropRate) None
        else if (rnd.nextDouble() < swapRate) Some(pool(rnd.nextInt(pool.size)))
        else Some(t)
      }
      val out = if (kept.isEmpty) Array(tokens(rnd.nextInt(tokens.length))) else kept
      out.mkString(" ")
    }

    val gold = new Array[Int](spec.nRecords)
    val values = new Array[Array[String]](spec.nRecords)
    var recId = 0
    var clusterId = 0

    (spec.dupClusters :+ ((1, spec.nRecords - spec.dupRecords))).foreach { case (size, count) =>
      var c = 0
      while (c < count) {
        val entity = spec.attrs.map(a => (a, drawValue(a)))
        var s = 0
        while (s < size) {
          gold(recId) = clusterId
          values(recId) = entity.map { case (a, v) => corrupt(v, a) }.toArray
          recId += 1; s += 1
        }
        clusterId += 1; c += 1
      }
    }

    val schema = StructType(
      StructField("id", LongType, nullable = false) +:
        StructField("cluster", LongType, nullable = false) +:
        spec.attrs.map(a => StructField(a.name, StringType, nullable = true))
    )
    val records = DriverFrames(spark, spec.nRecords, schema) { i =>
      Row.fromSeq(i.toLong +: gold(i).toLong +: values(i).toSeq)
    }
    val goldDf = records.select("id", "cluster")

    new EmDataset(spec, records, goldDf, gold, labeledPairs(spark, spec, gold, rnd))
  }
}
